// Package chaos is the declarative fault-plan model: a Plan is a named,
// seed-deterministic schedule of timed Events — crash/reboot a server,
// partition and heal region sets, degrade specific WAN links, and step or
// freeze per-node clocks. Plans register themselves by name in an
// internal/registry set, as topologies and workloads do, so experiments
// select a fault scenario the same way they select a WAN or a mix, and the
// chaos-matrix experiment sweeps protocol × plan.
//
// The package is pure data: an Event says what happens and when, never how.
// The harness owns the applier that schedules events on a deployment's
// simulator and dispatches them to the capability that implements each kind
// (protocol.Faultable for crashes, simnet.Network for partitions and link
// faults, clocks.Adjustable for clock misbehavior). That split keeps plans
// portable across protocols and leaves every plan replayable from its seed.
package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"tiga/internal/registry"
	"tiga/internal/simnet"
)

// Op is the kind of one fault event.
type Op int

// The event kinds a plan can schedule.
const (
	// OpCrash / OpReboot kill and revive one server replica through
	// protocol.Faultable (reboot triggers the protocol's own recovery).
	OpCrash Op = iota
	OpReboot
	// OpPartition / OpHeal cut and restore all traffic between two region
	// sets (simnet.Network.PartitionRegions / HealRegions).
	OpPartition
	OpHeal
	// OpDegradeLink / OpRestoreLink install and remove extra one-way delay,
	// jitter, and loss on one region link (simnet.Network.DegradeLink).
	OpDegradeLink
	OpRestoreLink
	// OpClockStep / OpClockFreeze / OpClockUnfreeze misbehave one node clock
	// (or every clock, Clock == AllClocks) via clocks.Adjustable. They can
	// only hurt performance: protocols that never read a clock are
	// untouched, and clock-dependent protocols must stay correct — the
	// paper's correctness-without-clocks claim, which the chaos matrix
	// re-checks with the serializability checker under every plan.
	OpClockStep
	OpClockFreeze
	OpClockUnfreeze
)

// AllClocks targets every deployment clock in a clock event.
const AllClocks = -1

// Event is one timed fault. Only the operand group selected by Op is
// meaningful; the zero value of the rest is ignored by the applier.
type Event struct {
	// At is the virtual time the event fires.
	At time.Duration
	Op Op
	// Shard/Replica address one server (OpCrash, OpReboot).
	Shard, Replica int
	// GroupA/GroupB are the region-id sets of a partition (OpPartition,
	// OpHeal — heal must name the same sets the partition did).
	GroupA, GroupB []int
	// LinkA/LinkB name the region pair of a link fault (OpDegradeLink,
	// OpRestoreLink); ExtraOWD/ExtraJitter/Loss are the fault parameters.
	LinkA, LinkB          int
	ExtraOWD, ExtraJitter time.Duration
	Loss                  float64
	// Clock indexes a deployment clock in creation order (AllClocks = every
	// clock); Step is the offset jump for OpClockStep.
	Clock int
	Step  time.Duration
}

// Window is the nominal fault window of a plan: the chaos matrix reports
// throughput, commit rate, and tail latency separately for the phases
// before Start, inside [Start, End), and after End.
type Window struct {
	Start, End time.Duration
}

// Env describes the deployment a plan is instantiated against, so canned
// plans scale to any shape. Rand is seeded deterministically per run; a
// plan that draws from it is replayable from the seed.
type Env struct {
	// Seed is the run's chaos seed (Rand is already seeded with it).
	Seed int64
	// Shards and Replicas give the server grid (protocol.Faultable shape
	// when the system supports faults; the spec's shape otherwise).
	Shards, Replicas int
	// ServerRegions is how many regions host server replicas.
	ServerRegions int
	// ServerRegion maps (shard, replica) to its region.
	ServerRegion func(shard, replica int) simnet.Region
	// Clocks is how many per-node clocks the deployment created (0 for
	// protocols that never read one).
	Clocks int
	// Rand is the plan's deterministic randomness source.
	Rand *rand.Rand
}

// Plan is one named fault scenario.
type Plan struct {
	// Name is the registry key (tigabench -chaos).
	Name string
	// Doc is a one-line description for discovery tooling (-chaos list).
	Doc string
	// Window is the nominal fault window for phase reporting.
	Window Window
	// Crashes marks plans containing OpCrash/OpReboot events: they apply
	// only to systems implementing protocol.Faultable, and the chaos matrix
	// excludes the rest by design (with a note, mirroring the sweeps'
	// exclusion remarks).
	Crashes bool
	// Events instantiates the schedule for a deployment shape. It must be
	// deterministic given env (draw randomness only from env.Rand).
	Events func(env Env) []Event
}

// plans lists plans by name.
var plans = registry.Sorted("chaos plan", func(a, b Plan) int { return strings.Compare(a.Name, b.Name) })

// Register makes a plan available under its name. It is intended to be
// called from package init functions and panics on duplicate names, missing
// event builders, or an empty window (mirroring the other registries).
func Register(p Plan) {
	if p.Events == nil {
		panic(fmt.Sprintf("chaos: plan %q has no event builder", p.Name))
	}
	if p.Window.End <= p.Window.Start {
		panic(fmt.Sprintf("chaos: plan %q has an empty fault window", p.Name))
	}
	plans.Add(p.Name, p)
}

// Names returns every registered plan name in alphabetical order.
func Names() []string { return plans.Names() }

// Lookup returns the registered plan for name, or an error listing the
// registered ones.
func Lookup(name string) (Plan, error) { return plans.Lookup(name) }

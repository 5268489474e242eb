// Package protocol defines the protocol-independent contract between the
// experiment harness and the transaction protocols, and a registry (an
// internal/registry set listed in Table 1's column order) through which
// protocols make themselves available by name.
//
// Each protocol package registers itself in an init function, declaring its
// tunable knobs alongside the factory:
//
//	func init() {
//		protocol.Register("Tapir", protocol.CostProfile{Exec: 5, Rank: 30},
//			protocol.Schema{
//				{Name: "max-retries", Type: protocol.KnobInt, Default: 5,
//					Doc: "client retries before reporting an abort"},
//			},
//			func(ctx *protocol.BuildContext) protocol.System { ... })
//	}
//
// The harness resolves a deployment with protocol.Build, which looks up the
// factory, converts the protocol's CostProfile into absolute CPU costs,
// type-checks the knob overrides in BuildContext.Knobs against the schema
// (filling declared defaults), and hands the factory a BuildContext carrying
// the network, placement, seeding, and validated knob values. Nothing in the
// harness names a concrete protocol type; optional abilities (serialization-
// timestamp checking, fault injection) are discovered through the capability
// interfaces below.
package protocol

import (
	"cmp"
	"fmt"
	"strings"
	"time"

	"tiga/internal/clocks"
	"tiga/internal/registry"
	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/txn"
)

// System is the protocol-independent submission interface every registered
// protocol implements.
type System interface {
	// Submit routes a transaction through the given coordinator index.
	// There is one coordinator per BuildContext.CoordRegions entry.
	Submit(coord int, t *txn.Txn, done func(txn.Result))
	// Start launches the system's periodic tasks; call once before running
	// the simulator.
	Start()
}

// Checkable is implemented by systems whose commit results carry globally
// agreed serialization timestamps (txn.Result.TS), making them eligible for
// the strict-serializability checker, and which expose per-shard leader
// stores for effect verification against committed history.
type Checkable interface {
	System
	// LeaderStore returns the current leader replica's store for a shard.
	LeaderStore(shard int) *store.Store
}

// Faultable is implemented by systems that support the paper's failure and
// recovery experiments (Fig 11) and the chaos layer's crash plans: crashing
// a replica mid-run and rebooting it with empty state. ServerGrid reports
// the addressable server grid, so a generic fault driver (the chaos applier)
// can enumerate targets — "every replica of shard 1", "all servers in
// region 0" — without naming a concrete protocol type.
type Faultable interface {
	System
	// ServerGrid returns the replica grid: shards × replicas per shard.
	// KillServer/RestartServer accept any (shard, replica) inside it;
	// replicas a deployment does not materialize are no-ops.
	ServerGrid() (shards, replicas int)
	KillServer(shard, replica int)
	RestartServer(shard, replica int)
}

// RollbackReporter is implemented by systems that execute speculatively and
// can revoke tentative executions; the count feeds the Fig 13 rollback-rate
// column.
type RollbackReporter interface {
	TotalRollbacks() int64
}

// SnapshotReadable is implemented by systems that maintain a monotonic
// safe-time watermark per replica and can serve read-only transactions from
// the nearest replica of each shard at 0 WRTT: the coordinator picks a
// snapshot timestamp, each touched replica answers from its multi-version
// store once its watermark passes the snapshot (blocking only for that
// SAFETIME delay), and the result reports which committed versions were
// observed so the snapshot-read checker can validate them against the
// commit history. The machinery is knob-gated per protocol ("local-reads",
// default off); SubmitLocalRead on a system built without the knob is
// undefined.
type SnapshotReadable interface {
	System
	// SubmitLocalRead routes a read-only transaction from coordinator
	// coord to the nearest replica of each shard it touches.
	SubmitLocalRead(coord int, t *txn.Txn, done func(txn.Result))
	// SafeTimes returns every replica's current safe-time watermark in
	// shard-major order (shard*replicas + replica), for staleness
	// measurement.
	SafeTimes() []time.Duration
}

// CostProfile declares a protocol's CPU-cost multipliers relative to the
// harness base units — the per-piece execution budget calibrated once against
// Table 1's MicroBench saturation throughputs (the paper's n2-standard-16
// testbed) and held fixed across every experiment. The multipliers reflect
// each protocol's per-transaction server work: Tiga's timestamp ordering is
// the cheapest; lock managers, per-replica OCC validation, RTC bookkeeping,
// and dependency graphs cost more.
type CostProfile struct {
	// Exec scales the base per-piece execution cost.
	Exec int
	// Aux scales the base tick cost charged to auxiliary bookkeeping
	// (dependency-graph visits, priority-queue maintenance). Zero if the
	// protocol has no such component.
	Aux int
	// Rank orders Names() into the paper's canonical Table 1 column order.
	Rank int
}

// BuildContext carries everything a Factory needs to assemble a deployment.
// ExecCost and AuxCost arrive already resolved from the protocol's
// CostProfile and the harness base units.
type BuildContext struct {
	Net *simnet.Network
	// Shards is the shard count m; F the tolerated failures per shard
	// (2f+1 replicas where the protocol replicates).
	Shards int
	F      int
	// Regions is the number of distinct server regions (3 in the paper's
	// testbed). Only protocols that keep one full copy per region read it;
	// every other replica is placed by ServerRegion.
	Regions int
	// CoordRegions lists one region per coordinator.
	CoordRegions []simnet.Region
	// ServerRegion maps (shard, replica) to a region, co-located or rotated
	// (simnet.ServerPlacement); it is the only placement a protocol reads.
	ServerRegion func(shard, replica int) simnet.Region
	// SeedStore pre-populates one shard's store (also used to rebuild
	// stores during recovery replay).
	SeedStore func(shard int, st *store.Store)
	// Clocks supplies per-node synchronized clocks for protocols that use
	// them.
	Clocks *clocks.Factory
	// ExecCost is the resolved per-piece execution budget
	// (CostProfile.Exec × base unit).
	ExecCost time.Duration
	// AuxCost is the resolved auxiliary tick cost (CostProfile.Aux × base
	// tick unit).
	AuxCost time.Duration
	// Knobs carries the knob overrides for the protocol being built, keyed
	// by knob name. Callers may leave it nil or sparse; Build validates it
	// against the protocol's registered Schema (rejecting unknown names and
	// type mismatches), fills the declared defaults, and replaces the field
	// with the resolved Values — so factories read it through the typed
	// getters (ctx.Knobs.Duration("delta"), ...) without nil checks.
	Knobs Values
}

// Factory assembles a ready-to-start System from a BuildContext.
type Factory func(ctx *BuildContext) System

// Def is one registered protocol: its name, cost profile and knob schema,
// and the factory Build invokes.
type Def struct {
	Name  string
	Cost  CostProfile
	Knobs Schema
	build Factory
}

// protocols lists protocols in the paper's canonical order: CostProfile.Rank,
// then name.
var protocols = registry.Sorted("protocol", func(a, b Def) int {
	return cmp.Or(cmp.Compare(a.Cost.Rank, b.Cost.Rank), strings.Compare(a.Name, b.Name))
})

// Register makes a protocol available under name, with the given knob
// schema. It is intended to be called from package init functions and panics
// on duplicate names, nil factories, or malformed schemas.
func Register(name string, cost CostProfile, knobs Schema, build Factory) {
	if build == nil {
		panic("protocol: Register requires a factory")
	}
	knobs.Validate("protocol " + name)
	protocols.Add(name, Def{Name: name, Cost: cost, Knobs: knobs, build: build})
}

// Names returns every registered protocol in the paper's canonical order
// (CostProfile.Rank, then name).
func Names() []string { return protocols.Names() }

// Lookup returns the registered protocol for name, or an error listing the
// registered ones.
func Lookup(name string) (Def, error) { return protocols.Lookup(name) }

// Build looks up name's factory, resolves the protocol's CostProfile against
// the given base units into ctx.ExecCost / ctx.AuxCost, validates ctx.Knobs
// against the registered knob schema (filling defaults), and invokes the
// factory. It returns an error naming the valid protocols when name is
// unknown, or the valid knobs when an override does not type-check.
func Build(name string, ctx *BuildContext, execUnit, auxUnit time.Duration) (System, error) {
	d, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	vals, err := d.Knobs.Resolve(ctx.Knobs)
	if err != nil {
		return nil, fmt.Errorf("protocol %s: %w", name, err)
	}
	ctx.Knobs = vals
	ctx.ExecCost = time.Duration(d.Cost.Exec) * execUnit
	ctx.AuxCost = time.Duration(d.Cost.Aux) * auxUnit
	return d.build(ctx), nil
}

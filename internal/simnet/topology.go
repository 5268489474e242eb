package simnet

import (
	"fmt"
	"strings"
	"time"
	"unicode"

	"tiga/internal/registry"
)

// Topology is a named WAN layout: the region roster, the one-way-delay
// matrix builder, how many of the leading regions host server replicas, and
// where remote coordinators are placed by default. Topologies register
// themselves by name in an internal/registry set, as protocols do,
// so experiments select a WAN by name instead of wiring a Config by hand —
// protocol rankings are known to flip as the WAN geometry changes, which is
// exactly what the scenario-matrix experiment sweeps.
type Topology struct {
	// Name is the registry key (see TopologyNames).
	Name string
	// Doc is a one-line description surfaced by discovery tooling
	// (cmd/tigabench -topo list).
	Doc string
	// RegionNames names every region; Region r indexes into it.
	RegionNames []string
	// RegionCodes are short labels for column headers ("SC p50"); when nil,
	// codes are derived from the region names' word initials. When set, the
	// registry requires one code per region.
	RegionCodes []string
	// ServerRegions is how many of the leading regions host server
	// replicas (placed by ServerPlacement); any remaining regions host only
	// coordinators.
	ServerRegions int
	// RemoteCoordRegion is the default placement for remote coordinators
	// (ClusterSpec.CoordsRemote) — the paper's Hong Kong analogue.
	RemoteCoordRegion Region
	// OWD builds the one-way-delay matrix with the given per-link jitter.
	OWD func(jitter time.Duration) [][]Latency
	// DefaultJitter and DefaultLoss apply when Config is passed zero
	// jitter/loss; the degraded-WAN variants carry elevated values here so
	// selecting them by name is enough.
	DefaultJitter time.Duration
	DefaultLoss   float64
}

// NumRegions returns the total region count.
func (t *Topology) NumRegions() int { return len(t.RegionNames) }

// RegionName returns the topology's human-readable name for r.
func (t *Topology) RegionName(r Region) string {
	if int(r) < 0 || int(r) >= len(t.RegionNames) {
		return "Unknown"
	}
	return t.RegionNames[r]
}

// RegionCode returns the short column-header label for r ("SC", "HK"):
// the registered code, or the region name's word initials when none was
// declared.
func (t *Topology) RegionCode(r Region) string {
	if int(r) < 0 || int(r) >= len(t.RegionNames) {
		return "??"
	}
	if len(t.RegionCodes) == len(t.RegionNames) {
		return t.RegionCodes[r]
	}
	var code []rune
	for _, word := range strings.Fields(t.RegionNames[r]) {
		for _, c := range word {
			code = append(code, unicode.ToUpper(c))
			break
		}
	}
	return string(code)
}

// ServerPlacement is the one rule for where a shard's replicas live among n
// server regions. Co-located (the paper's default), replica r of every shard
// is in region r mod n, so all leaders share region 0; rotated (§5.5,
// Table 2), it is in region (r+shard) mod n, so shard s's leader is in
// region s mod n.
func ServerPlacement(n int, rotated bool) func(shard, replica int) Region {
	if rotated {
		return func(shard, replica int) Region { return Region((replica + shard) % n) }
	}
	return func(_, replica int) Region { return Region(replica % n) }
}

// Nearest picks the replica with the smallest round-trip estimate from a
// coordinator's region, preferring the lowest index on ties — replica
// placement maps indices to regions, so on the paper topologies this is the
// same-region replica whenever one exists.
func Nearest(net *Network, from Region, replicas int, regionOf func(replica int) Region) int {
	best, bestRTT := 0, time.Duration(-1)
	for r := 0; r < replicas; r++ {
		reg := regionOf(r)
		rtt := net.BaseOWD(from, reg) + net.BaseOWD(reg, from)
		if bestRTT < 0 || rtt < bestRTT {
			best, bestRTT = r, rtt
		}
	}
	return best
}

// Config materializes the simulated-network configuration at the topology's
// default jitter. Zero loss selects the topology's default loss, so the
// caller only overrides what an experiment actually sweeps.
func (t *Topology) Config(loss float64) Config {
	if loss == 0 {
		loss = t.DefaultLoss
	}
	return Config{OWD: t.OWD(t.DefaultJitter), LossRate: loss, DefaultCost: time.Microsecond}
}

// DefaultTopology names the paper's 4-region GCP WAN, the registry's default.
const DefaultTopology = "geo4"

// topologies lists the default first, then the rest by name — a stable
// order for discovery listings and errors.
var topologies = registry.Sorted("topology", func(a, b *Topology) int {
	switch {
	case a.Name == DefaultTopology:
		return -1
	case b.Name == DefaultTopology:
		return 1
	}
	return strings.Compare(a.Name, b.Name)
})

// RegisterTopology makes a topology available under its name. It is intended
// to be called from package init functions and panics on duplicate names or
// malformed layouts (so a topology cannot come up inconsistent, mirroring
// protocol.Register).
func RegisterTopology(t Topology) {
	if t.OWD == nil {
		panic(fmt.Sprintf("simnet: topology %q has no OWD builder", t.Name))
	}
	n := len(t.RegionNames)
	if n == 0 {
		panic(fmt.Sprintf("simnet: topology %q has no regions", t.Name))
	}
	if t.ServerRegions < 1 || t.ServerRegions > n {
		panic(fmt.Sprintf("simnet: topology %q: ServerRegions %d out of range [1, %d]", t.Name, t.ServerRegions, n))
	}
	if int(t.RemoteCoordRegion) < 0 || int(t.RemoteCoordRegion) >= n {
		panic(fmt.Sprintf("simnet: topology %q: RemoteCoordRegion %d out of range", t.Name, t.RemoteCoordRegion))
	}
	if len(t.RegionCodes) != 0 && len(t.RegionCodes) != n {
		panic(fmt.Sprintf("simnet: topology %q has %d region codes for %d regions", t.Name, len(t.RegionCodes), n))
	}
	owd := t.OWD(0)
	if len(owd) != n {
		panic(fmt.Sprintf("simnet: topology %q: OWD matrix has %d rows for %d regions", t.Name, len(owd), n))
	}
	for i, row := range owd {
		if len(row) != n {
			panic(fmt.Sprintf("simnet: topology %q: OWD row %d has %d columns for %d regions", t.Name, i, len(row), n))
		}
	}
	topologies.Add(t.Name, &t)
}

// TopologyNames returns every registered topology name, the default first,
// then alphabetically.
func TopologyNames() []string { return topologies.Names() }

// LookupTopology returns the registered topology for name, or an error
// listing the registered ones.
func LookupTopology(name string) (*Topology, error) { return topologies.Lookup(name) }

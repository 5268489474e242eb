package workload

import (
	"fmt"
	"strings"

	"tiga/internal/protocol"
	"tiga/internal/registry"
)

// Def describes one registered workload: a name, a doc line for discovery
// tooling, a typed parameter schema, and a factory. The schema reuses the
// protocol knob machinery (protocol.Schema/Values), so workload parameters
// get the same validation, defaults, and CLI parsing as protocol knobs.
type Def struct {
	// Name is the registry key (see Names).
	Name string
	// Doc is a one-line description (cmd/tigabench -workload list).
	Doc string
	// Params declares the workload's typed parameters.
	Params protocol.Schema
	// New builds a fresh generator for a deployment of `shards` shards with
	// a per-shard keyspace of `keys` (interpreted workload-specifically;
	// TPC-C scales its Customers/Items tables from it). Every experiment
	// point must own a private generator — generators may be stateful, and
	// sharing one across points breaks the parallel driver's
	// serial-identical guarantee.
	New func(shards, keys int, p protocol.Values) Generator
}

// workloads lists workloads by name.
var workloads = registry.Sorted("workload", func(a, b Def) int { return strings.Compare(a.Name, b.Name) })

// Register makes a workload available under its name. It is intended to be
// called from package init functions and panics on duplicate names, missing
// factories, or malformed parameter schemas (mirroring protocol.Register).
func Register(def Def) {
	if def.New == nil {
		panic(fmt.Sprintf("workload: %q registered without a factory", def.Name))
	}
	def.Params.Validate("workload " + def.Name)
	workloads.Add(def.Name, def)
}

// Names returns every registered workload name in alphabetical order.
func Names() []string { return workloads.Names() }

// Lookup returns the registered definition for name, or an error listing
// the registered ones.
func Lookup(name string) (Def, error) { return workloads.Lookup(name) }

// Build resolves a named workload: it validates raw parameter overrides
// against the registered schema (unknown names and type mismatches are
// errors, defaults fill in) and invokes the factory. It returns an error
// naming the valid workloads when name is unknown, and one naming the bound
// when a skew parameter (a Zipfian θ) lies outside [0, 1).
func Build(name string, shards, keys int, raw map[string]any) (Generator, error) {
	def, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	vals, err := def.Params.Resolve(raw)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	if skew, ok := vals["skew"].(float64); ok && !(skew >= 0 && skew < 1) {
		return nil, fmt.Errorf("workload %s: skew %v is outside [0, 1)", name, skew)
	}
	return def.New(shards, keys, vals), nil
}

// What only this package's tests call, kept out of the product build: no
// entry point runs it (ci/reach.sh).

package janus

import "tiga/internal/store"

// Store exposes a replica store (tests).
func (sys *System) Store(shard, rep int) *store.Store { return sys.replicas[shard][rep].st }

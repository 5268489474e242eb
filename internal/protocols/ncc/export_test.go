// What only this package's tests call, kept out of the product build: no
// entry point runs it (ci/reach.sh).

package ncc

import "tiga/internal/store"

// Store exposes a shard store (tests).
func (sys *System) Store(shard int) *store.Store { return sys.servers[shard].st }

// What only this package's tests call, kept out of the product build: no
// entry point runs it (ci/reach.sh).

package detock

import "tiga/internal/store"

// Store exposes a region's copy of a shard (tests).
func (sys *System) Store(region, shard int) *store.Store { return sys.engines[region].sts[shard] }

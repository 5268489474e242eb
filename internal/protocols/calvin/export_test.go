// What only this package's tests call, kept out of the product build: no
// entry point runs it (ci/reach.sh).

package calvin

import "tiga/internal/store"

// Store exposes a region's shard store (tests).
func (sys *System) Store(region, shard int) *store.Store { return sys.execs[region][shard].st }

// What only this package's tests call, kept out of the product build: no
// entry point runs it (ci/reach.sh).

package lockocc

import "tiga/internal/store"

// String names the protocol a CC runs, for subtest names.
func (c CC) String() string {
	if c == TwoPL {
		return "2PL+Paxos"
	}
	return "OCC+Paxos"
}

// Store exposes a shard leader's store (tests).
func (sys *System) Store(shard int) *store.Store { return sys.servers[shard][0].st }

// What only this package's tests call, kept out of the product build: no
// entry point runs it (ci/reach.sh).

package admit

// Depth returns the current queue length (tests).
func (g *Gate) Depth() int { return len(g.queue) }

// Inflight returns the number of admitted, unfinished transactions (tests).
func (g *Gate) Inflight() int { return g.inflight }

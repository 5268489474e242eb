// What only this package's tests call, kept out of the product build: no
// entry point runs it (ci/reach.sh).

package checker

// Expected exposes the number of tracked keys (tests).
func (c *Counter) Expected() int { return len(c.expected) }

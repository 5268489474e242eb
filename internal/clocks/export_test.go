// What only this package's tests call, kept out of the product build: no
// entry point runs it (ci/reach.sh).

package clocks

// Frozen reports whether the clock is currently frozen.
func (a *Adjustable) Frozen() bool { return a.frozen }

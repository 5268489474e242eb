// What only this package's tests call, kept out of the product build: no
// entry point runs it (ci/reach.sh).

package simnet

// NumRegions returns the total region count.
func (t *Topology) NumRegions() int { return len(t.RegionNames) }

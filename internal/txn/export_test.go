// What only this package's tests call, kept out of the product build: no
// entry point runs it (ci/reach.sh).

package txn

// Max returns the larger of a and b.
func (a Timestamp) Max(b Timestamp) Timestamp {
	if a.Less(b) {
		return b
	}
	return a
}

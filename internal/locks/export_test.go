// What only this package's tests call, kept out of the product build: no
// entry point runs it (ci/reach.sh).

package locks

import (
	"slices"

	"tiga/internal/txn"
)

// Holds reports whether id currently holds key.
func (t *Table) Holds(key string, id txn.ID) bool {
	l := t.locks[key]
	return l != nil && slices.ContainsFunc(l.holders, func(h holder) bool { return h.id == id })
}

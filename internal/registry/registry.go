// Package registry is the named set behind every registry of the
// reproduction: protocols, topologies, workloads, fault plans, experiments
// and measured shapes. It decides how a name resolves, the order names are
// listed in, and what an unknown name reports, so every registry answers
// the same way. It imports nothing internal, so any package can keep one.
package registry

import (
	"fmt"
	"slices"
)

// Set maps unique, non-empty names to values of type T. Sets are filled
// from package init functions and only read afterwards.
type Set[T any] struct {
	kind   string
	cmp    func(a, b T) int
	names  []string // listing order
	byName map[string]T
}

// New returns an empty set of the given kind ("protocol", "topology", ...)
// that lists names in registration order.
func New[T any](kind string) *Set[T] {
	return &Set[T]{kind: kind, byName: map[string]T{}}
}

// Sorted returns an empty set that lists names in cmp order of their
// values; values that compare equal keep registration order.
func Sorted[T any](kind string, cmp func(a, b T) int) *Set[T] {
	s := New[T](kind)
	s.cmp = cmp
	return s
}

// Add registers v under name. It panics on an empty or duplicate name:
// registration runs at init, so either is a bug.
func (s *Set[T]) Add(name string, v T) {
	if name == "" {
		panic(fmt.Sprintf("registry: %s registered without a name", s.kind))
	}
	if _, dup := s.byName[name]; dup {
		panic(fmt.Sprintf("registry: duplicate registration of %s %q", s.kind, name))
	}
	s.byName[name] = v
	at := len(s.names)
	if s.cmp != nil {
		if i := slices.IndexFunc(s.names, func(n string) bool { return s.cmp(s.byName[n], v) > 0 }); i >= 0 {
			at = i
		}
	}
	s.names = slices.Insert(s.names, at, name)
}

// Names returns every registered name in listing order.
func (s *Set[T]) Names() []string {
	return slices.Clone(s.names)
}

// All returns every registered value in listing order.
func (s *Set[T]) All() []T {
	out := make([]T, len(s.names))
	for i, n := range s.names {
		out[i] = s.byName[n]
	}
	return out
}

// Lookup returns the value registered under name, or an error naming the
// kind and listing Names().
func (s *Set[T]) Lookup(name string) (T, error) {
	v, ok := s.byName[name]
	if !ok {
		return v, fmt.Errorf("unknown %s %q (registered: %v)", s.kind, name, s.names)
	}
	return v, nil
}

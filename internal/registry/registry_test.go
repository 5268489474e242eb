package registry

import (
	"slices"
	"strings"
	"testing"
)

// TestSet covers both listing orders, the lookup error, and the two
// registration mistakes that panic.
func TestSet(t *testing.T) {
	byLen := func(a, b string) int { return len(a) - len(b) }
	for _, c := range []struct {
		name  string
		set   *Set[string]
		add   []string // registered in this order, each under its own name
		want  []string // Names()
		panic string   // non-empty: the last Add panics with this text
	}{
		{name: "registration order", set: New[string]("widget"),
			add: []string{"c", "a", "b"}, want: []string{"c", "a", "b"}},
		{name: "compare order, ties in registration order", set: Sorted("widget", byLen),
			add: []string{"ccc", "b", "aa", "a"}, want: []string{"b", "a", "aa", "ccc"}},
		{name: "duplicate", set: New[string]("widget"),
			add: []string{"a", "b", "a"}, want: []string{"a", "b"}, panic: `duplicate registration of widget "a"`},
		{name: "empty", set: Sorted("widget", byLen),
			add: []string{"a", ""}, want: []string{"a"}, panic: "widget registered without a name"},
	} {
		t.Run(c.name, func(t *testing.T) {
			func() {
				defer func() {
					r := recover()
					if s, _ := r.(string); (c.panic == "") != (r == nil) || !strings.Contains(s, c.panic) {
						t.Errorf("Add panicked with %v, want %q", r, c.panic)
					}
				}()
				for _, n := range c.add {
					c.set.Add(n, "value of "+n)
				}
			}()
			if got := c.set.Names(); !slices.Equal(got, c.want) {
				t.Errorf("Names() = %v, want %v", got, c.want)
			}
			for i, v := range c.set.All() {
				if v != "value of "+c.want[i] {
					t.Errorf("All()[%d] = %q, want the value of %q", i, v, c.want[i])
				}
			}
			if v, err := c.set.Lookup(c.want[0]); err != nil || v != "value of "+c.want[0] {
				t.Errorf("Lookup(%q) = %q, %v", c.want[0], v, err)
			}
			_, err := c.set.Lookup("nosuch")
			if want := `unknown widget "nosuch" (registered: [` + strings.Join(c.want, " ") + "])"; err == nil || err.Error() != want {
				t.Errorf("Lookup(nosuch) = %v, want %s", err, want)
			}
		})
	}
}

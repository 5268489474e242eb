// Knob-schema validation tests. Like the registry smoke test, this lives in
// an external test package and imports the harness so every protocol's
// init-time registration (and knob schema) is present.
package protocol_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	_ "tiga/internal/harness"
	"tiga/internal/protocol"
)

// TestEveryProtocolDeclaresKnobs: every registered protocol declares a knob
// schema, and every knob in it is documented. A schema may be empty: NCC and
// NCC+ have no knob.
func TestEveryProtocolDeclaresKnobs(t *testing.T) {
	for _, name := range protocol.Names() {
		def, err := protocol.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range def.Knobs {
			if k.Doc == "" {
				t.Errorf("%s.%s has no doc string", name, k.Name)
			}
		}
	}
}

// TestKnobValidationPerProtocol exercises the three validation outcomes for
// every registered protocol: unknown knob names are rejected with the valid
// list, type mismatches are rejected naming the expected type, and an empty
// override resolves to the declared defaults.
func TestKnobValidationPerProtocol(t *testing.T) {
	for _, name := range protocol.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			def, _ := protocol.Lookup(name)
			schema := def.Knobs

			// Unknown knob name.
			_, err := schema.Resolve(map[string]any{"no-such-knob": 1})
			if err == nil {
				t.Fatal("unknown knob accepted")
			}
			if len(schema) > 0 && !strings.Contains(err.Error(), schema[0].Name) {
				t.Fatalf("unknown-knob error %q does not list the valid knobs", err)
			}

			// Wrong type for every declared knob (struct{}{} matches none).
			for _, k := range schema {
				if _, err := schema.Resolve(map[string]any{k.Name: struct{}{}}); err == nil {
					t.Fatalf("knob %s accepted a struct{} value", k.Name)
				} else if !strings.Contains(err.Error(), k.Type.String()) {
					t.Fatalf("type error %q does not name the expected type %s", err, k.Type)
				}
			}

			// Default fill-in: nil resolves to every declared default.
			vals, err := schema.Resolve(nil)
			if err != nil {
				t.Fatalf("defaults do not resolve: %v", err)
			}
			if len(vals) != len(schema) {
				t.Fatalf("resolved %d values for %d declared knobs", len(vals), len(schema))
			}
			for _, k := range schema {
				if _, ok := vals[k.Name]; !ok {
					t.Fatalf("knob %s missing from resolved defaults", k.Name)
				}
			}

			// Partial override: one knob set, the rest defaulted.
			if len(schema) == 0 {
				return
			}
			first := schema[0]
			over := differentValue(first)
			vals, err = schema.Resolve(map[string]any{first.Name: over})
			if err != nil {
				t.Fatalf("override rejected: %v", err)
			}
			if vals[first.Name] == defaultOf(first) {
				t.Fatalf("override of %s did not take", first.Name)
			}
			for _, k := range schema[1:] {
				if vals[k.Name] != defaultOf(k) {
					t.Fatalf("knob %s lost its default under a partial override", k.Name)
				}
			}
		})
	}
}

// differentValue returns a valid value for k that differs from its default.
func differentValue(k protocol.Knob) any {
	switch k.Type {
	case protocol.KnobBool:
		return !k.Default.(bool)
	case protocol.KnobInt:
		return k.Default.(int) + 7
	case protocol.KnobFloat:
		return k.Default.(float64) + 7
	case protocol.KnobDuration:
		return k.Default.(time.Duration) + 7*time.Millisecond
	}
	panic("unhandled knob type")
}

func defaultOf(k protocol.Knob) any { return k.Default }

// TestParseValue covers the CLI string parser for every knob type.
func TestParseValue(t *testing.T) {
	cases := []struct {
		typ  protocol.KnobType
		in   string
		want any
		bad  string
	}{
		{protocol.KnobBool, "true", true, "maybe"},
		{protocol.KnobInt, "42", 42, "4.5"},
		{protocol.KnobFloat, "2.5", 2.5, "fast"},
		{protocol.KnobDuration, "15ms", 15 * time.Millisecond, "15"},
	}
	for _, c := range cases {
		k := protocol.Knob{Name: "k", Type: c.typ}
		got, err := protocol.ParseValue(k, c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseValue(%s, %q) = %v, %v; want %v", c.typ, c.in, got, err, c.want)
		}
		if _, err := protocol.ParseValue(k, c.bad); err == nil {
			t.Errorf("ParseValue(%s, %q) accepted garbage", c.typ, c.bad)
		}
	}
}

// TestParseSet covers the CLIs' -set parser: a valid assignment comes back
// typed, and each kind of mistake is an error naming what is valid.
func TestParseSet(t *testing.T) {
	proto, knob, v, err := protocol.ParseSet("Tiga.delta=20ms")
	if proto != "Tiga" || knob != "delta" || v != 20*time.Millisecond || err != nil {
		t.Errorf("ParseSet(Tiga.delta=20ms) = %q, %q, %v, %v", proto, knob, v, err)
	}
	for in, want := range map[string]string{
		"Tiga.delta":                "want proto.knob=value",
		"Tigadelta=20ms":            "want proto.knob=value",
		"Nope.delta=20ms":           `unknown protocol "Nope" (registered: [2PL+Paxos`,
		"Tiga.nosuch=1":             "valid knobs: delta, headroom-delta",
		"Tiga.delta=abc":            "is not a duration",
		"Tiga.sync-point-every=0s":  "below the minimum 1ms",
		"Janus.fast-path=sometimes": "is not a bool",
	} {
		if _, _, _, err := protocol.ParseSet(in); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseSet(%s) = %v, want an error containing %q", in, err, want)
		}
	}
}

// TestKnobMinimum: a value below a knob's declared minimum is rejected by
// every validation path — Resolve, which Build runs, and the CLI's ParseValue —
// naming the minimum; the bound itself is accepted. Each knob below breaks the
// simulator at zero: Detock's scan window used to take 0 as "the default" and
// panic on a negative bound mid-sweep, and Tiga's sync-point and retry timers
// and Calvin+'s epoch ticker re-arm at the same instant forever.
func TestKnobMinimum(t *testing.T) {
	for _, c := range []struct {
		proto, knob string
		min         string   // the minimum as the CLI writes it
		below       []string // values under it
	}{
		{"Detock", "ddr-scan", "1", []string{"0", "-1"}},
		{"Tiga", "sync-point-every", "1ms", []string{"0s", "999us", "-5ms"}},
		{"Tiga", "retry-timeout", "1ms", []string{"0s", "999us", "-5ms"}},
		{"Calvin+", "epoch", "1ms", []string{"0s", "999us", "-5ms"}},
	} {
		def, _ := protocol.Lookup(c.proto)
		knob, ok := def.Knobs.Find(c.knob)
		if !ok || fmt.Sprint(knob.Min) != c.min {
			t.Errorf("%s.%s = %+v, want a minimum of %s", c.proto, c.knob, knob, c.min)
			continue
		}
		// typed parses a CLI value without the minimum check, as a caller of
		// Schema.Resolve would pass it.
		typed := func(s string) any {
			v, err := protocol.ParseValue(protocol.Knob{Name: knob.Name, Type: knob.Type}, s)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		want := "below the minimum " + c.min
		for _, bad := range c.below {
			if _, err := def.Knobs.Resolve(map[string]any{c.knob: typed(bad)}); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("Resolve(%s.%s=%s) = %v, want a below-the-minimum error", c.proto, c.knob, bad, err)
			}
			if _, err := protocol.ParseValue(knob, bad); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("ParseValue(%s.%s, %s) = %v, want a below-the-minimum error", c.proto, c.knob, bad, err)
			}
		}
		if vals, err := def.Knobs.Resolve(map[string]any{c.knob: typed(c.min)}); err != nil || vals[c.knob] != knob.Min {
			t.Errorf("Resolve(%s.%s=%s) = %v, %v", c.proto, c.knob, c.min, vals[c.knob], err)
		}
		if v, err := protocol.ParseValue(knob, c.min); err != nil || v != knob.Min {
			t.Errorf("ParseValue(%s.%s, %s) = %v, %v", c.proto, c.knob, c.min, v, err)
		}
	}

	// Minimums apply to every ordered knob type, and a schema cannot declare
	// one its default breaks.
	dur := protocol.Schema{{Name: "d", Type: protocol.KnobDuration, Default: time.Second, Min: time.Millisecond}}
	dur.Validate("test")
	if _, err := dur.Resolve(map[string]any{"d": time.Microsecond}); err == nil {
		t.Error("a duration below its minimum resolved")
	}
	flt := protocol.Schema{{Name: "f", Type: protocol.KnobFloat, Default: 0.5, Min: 0}}
	flt.Validate("test")
	if _, err := flt.Resolve(map[string]any{"f": -0.1}); err == nil {
		t.Error("a float below its minimum resolved")
	}
	defer func() {
		if recover() == nil {
			t.Error("a schema whose default is below its minimum validated")
		}
	}()
	protocol.Schema{{Name: "n", Type: protocol.KnobInt, Default: 0, Min: 1}}.Validate("test")
}

// Knob-schema validation tests. Like the registry smoke test, this lives in
// an external test package and imports the harness so every protocol's
// init-time registration (and knob schema) is present.
package protocol_test

import (
	"strconv"
	"strings"
	"testing"
	"time"

	_ "tiga/internal/harness"
	"tiga/internal/protocol"
	"tiga/internal/tiga"
)

// TestEveryProtocolDeclaresKnobs: every registered protocol declares a knob
// schema, and every knob in it is documented. A schema may be empty: NCC and
// NCC+ have no knob.
func TestEveryProtocolDeclaresKnobs(t *testing.T) {
	for _, name := range protocol.Names() {
		schema, ok := protocol.Knobs(name)
		if !ok {
			t.Fatalf("Knobs(%q) not found", name)
		}
		for _, k := range schema {
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
			schema, _ := protocol.Knobs(name)

			// Unknown knob name.
			_, err := protocol.ResolveKnobs(name, map[string]any{"no-such-knob": 1})
			if err == nil {
				t.Fatal("unknown knob accepted")
			}
			if len(schema) > 0 && !strings.Contains(err.Error(), schema[0].Name) {
				t.Fatalf("unknown-knob error %q does not list the valid knobs", err)
			}

			// Wrong type for every declared knob (struct{}{} matches none).
			for _, k := range schema {
				if _, err := protocol.ResolveKnobs(name, map[string]any{k.Name: struct{}{}}); err == nil {
					t.Fatalf("knob %s accepted a struct{} value", k.Name)
				} else if !strings.Contains(err.Error(), k.Type.String()) {
					t.Fatalf("type error %q does not name the expected type %s", err, k.Type)
				}
			}

			// Default fill-in: nil resolves to every declared default.
			vals, err := protocol.ResolveKnobs(name, nil)
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
			vals, err = protocol.ResolveKnobs(name, map[string]any{first.Name: over})
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

// TestTigaKnobDefaultsMatchConfig pins the knob schema's defaults to
// tiga.DefaultConfig, so the two cannot drift apart silently (building with
// no overrides must reproduce the evaluation configuration).
func TestTigaKnobDefaultsMatchConfig(t *testing.T) {
	cfg := tiga.DefaultConfig(3, 1)
	vals, err := protocol.ResolveKnobs("Tiga", nil)
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]any{
		"delta":                cfg.Delta,
		"headroom-delta":       cfg.HeadroomDelta,
		"zero-headroom":        cfg.ZeroHeadroom,
		"epsilon-bound":        cfg.EpsilonBound,
		"colocation-threshold": cfg.ColocationThreshold,
		"retry-timeout":        cfg.RetryTimeout,
		"sync-point-every":     cfg.SyncPointEvery,
		"batch-slow-replies":   cfg.BatchSlowReplies,
		"checkpoint-every":     cfg.CheckpointEvery,
	}
	for name, want := range checks {
		if vals[name] != want {
			t.Errorf("Tiga knob %s default %v drifted from DefaultConfig %v", name, vals[name], want)
		}
	}
}

// TestKnobMinimum: a value below a knob's declared minimum is rejected by
// every validation path — Resolve, which Build runs, and the CLI's ParseValue —
// naming the minimum; the bound itself is accepted. Detock's scan window used
// to take 0 as "the default" and panic on a negative bound mid-sweep.
func TestKnobMinimum(t *testing.T) {
	schema, _ := protocol.Knobs("Detock")
	knob, ok := schema.Find("ddr-scan")
	if !ok || knob.Min != 1 {
		t.Fatalf("Detock.ddr-scan = %+v, want a minimum of 1", knob)
	}
	for _, bad := range []int{0, -1} {
		_, err := protocol.ResolveKnobs("Detock", map[string]any{"ddr-scan": bad})
		if err == nil || !strings.Contains(err.Error(), "below the minimum 1") {
			t.Errorf("ResolveKnobs(ddr-scan=%d) = %v, want a below-the-minimum error", bad, err)
		}
		if _, err := protocol.ParseValue(knob, strconv.Itoa(bad)); err == nil || !strings.Contains(err.Error(), "below the minimum 1") {
			t.Errorf("ParseValue(ddr-scan, %d) = %v, want a below-the-minimum error", bad, err)
		}
	}
	if vals, err := protocol.ResolveKnobs("Detock", map[string]any{"ddr-scan": 1}); err != nil || vals.Int("ddr-scan") != 1 {
		t.Errorf("ResolveKnobs(ddr-scan=1) = %v, %v", vals, err)
	}
	if v, err := protocol.ParseValue(knob, "1"); err != nil || v != 1 {
		t.Errorf("ParseValue(ddr-scan, 1) = %v, %v", v, err)
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

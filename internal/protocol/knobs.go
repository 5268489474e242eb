package protocol

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// KnobType is the declared type of a tuning knob.
type KnobType int

// Knob value types.
const (
	KnobBool KnobType = iota
	KnobInt
	KnobFloat
	KnobDuration
)

func (t KnobType) String() string {
	switch t {
	case KnobBool:
		return "bool"
	case KnobInt:
		return "int"
	case KnobFloat:
		return "float"
	case KnobDuration:
		return "duration"
	}
	return fmt.Sprintf("KnobType(%d)", int(t))
}

// Knob declares one named tunable of a protocol: its type, the default the
// protocol runs with when the knob is not set, and a doc string surfaced by
// discovery tooling (cmd/tigabench -knobs).
type Knob struct {
	Name    string
	Type    KnobType
	Default any
	// Min, when set, is the smallest value the knob accepts (a value of the
	// knob's type; bool knobs have none).
	Min any
	Doc string
}

// Schema is the ordered set of knobs a protocol registers alongside its
// factory. Order is presentation order; names must be unique.
type Schema []Knob

// Validate panics on malformed schemas — Register runs it at init time so a
// protocol cannot come up with an inconsistent knob declaration. `owner`
// names the registrant in the panic message; other registries reusing the
// schema machinery (the workload registry) run it with their own prefix.
func (s Schema) Validate(owner string) {
	seen := make(map[string]bool, len(s))
	for _, k := range s {
		if k.Name == "" {
			panic(fmt.Sprintf("%s: knob with empty name", owner))
		}
		if seen[k.Name] {
			panic(fmt.Sprintf("%s: duplicate knob %q", owner, k.Name))
		}
		seen[k.Name] = true
		if k.Min != nil {
			if _, err := coerce(k.Type, k.Min); err != nil || k.Type == KnobBool {
				panic(fmt.Sprintf("%s: knob %q minimum %v: not a bound on a %s", owner, k.Name, k.Min, k.Type))
			}
		}
		if _, err := k.accept(k.Default); err != nil {
			panic(fmt.Sprintf("%s: knob %q default %v: %v", owner, k.Name, k.Default, err))
		}
	}
}

// accept normalizes v to the knob's canonical Go type and checks it against
// the knob's minimum.
func (k Knob) accept(v any) (any, error) {
	v, err := coerce(k.Type, v)
	if err != nil || k.Min == nil {
		return v, err
	}
	var below bool
	switch min, _ := coerce(k.Type, k.Min); min := min.(type) {
	case int:
		below = v.(int) < min
	case float64:
		below = v.(float64) < min
	case time.Duration:
		below = v.(time.Duration) < min
	}
	if below {
		return nil, fmt.Errorf("%v is below the minimum %v", v, k.Min)
	}
	return v, nil
}

// Find returns the declared knob with the given name.
func (s Schema) Find(name string) (Knob, bool) {
	for _, k := range s {
		if k.Name == name {
			return k, true
		}
	}
	return Knob{}, false
}

// Names returns the knob names in declaration order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, k := range s {
		out[i] = k.Name
	}
	return out
}

// Values is a validated knob assignment: after Schema.Resolve every declared
// knob is present with its canonical Go type, so the typed getters below
// cannot fail at run time — a panic from one means the factory asked for a
// knob its schema never declared, which is a programming error.
type Values map[string]any

// Resolve validates a raw knob override map against the schema: unknown
// names, type mismatches and values below a knob's minimum are errors, and
// knobs absent from raw are filled with their declared defaults. raw may be
// nil.
func (s Schema) Resolve(raw map[string]any) (Values, error) {
	out := make(Values, len(s))
	for _, k := range s {
		v, _ := coerce(k.Type, k.Default)
		out[k.Name] = v
	}
	// Deterministic error selection: report the alphabetically first bad key.
	keys := make([]string, 0, len(raw))
	for name := range raw {
		keys = append(keys, name)
	}
	sort.Strings(keys)
	for _, name := range keys {
		k, ok := s.Find(name)
		if !ok {
			return nil, fmt.Errorf("unknown knob %q (valid: %s)", name, strings.Join(s.Names(), ", "))
		}
		v, err := k.accept(raw[name])
		if err != nil {
			return nil, fmt.Errorf("knob %q: %v", name, err)
		}
		out[name] = v
	}
	return out, nil
}

// coerce normalizes v to the canonical Go type for t (bool, int, float64,
// time.Duration), accepting only the conversions that cannot lose meaning.
func coerce(t KnobType, v any) (any, error) {
	switch t {
	case KnobBool:
		if b, ok := v.(bool); ok {
			return b, nil
		}
	case KnobInt:
		switch n := v.(type) {
		case int:
			return n, nil
		case int64:
			return int(n), nil
		}
	case KnobFloat:
		switch n := v.(type) {
		case float64:
			return n, nil
		case int:
			return float64(n), nil
		}
	case KnobDuration:
		if d, ok := v.(time.Duration); ok {
			return d, nil
		}
	}
	return nil, fmt.Errorf("want %s, got %T (%v)", t, v, v)
}

// ParseValue parses a CLI string into the knob's declared type and checks it
// against the knob's minimum (used by cmd/tigabench -set).
func ParseValue(k Knob, s string) (any, error) {
	v, err := parseValue(k, s)
	if err != nil {
		return nil, err
	}
	if v, err = k.accept(v); err != nil {
		return nil, fmt.Errorf("knob %q: %v", k.Name, err)
	}
	return v, nil
}

// ParseSet parses one proto.knob=value assignment, the argument of the CLIs'
// -set flag, against the registry: the protocol and its knob must be
// registered, and the value must parse as the knob's type and meet its
// minimum. Each error names the valid alternatives.
func ParseSet(s string) (proto, knob string, v any, err error) {
	path, raw, ok := strings.Cut(s, "=")
	proto, knob, dot := strings.Cut(path, ".")
	if !ok || !dot {
		return "", "", nil, errors.New("want proto.knob=value")
	}
	def, err := Lookup(proto)
	if err != nil {
		return "", "", nil, err
	}
	k, ok := def.Knobs.Find(knob)
	if !ok {
		return "", "", nil, fmt.Errorf("protocol %s has no knob %q\nvalid knobs: %s (see -knobs)", proto, knob, strings.Join(def.Knobs.Names(), ", "))
	}
	v, err = ParseValue(k, raw)
	return proto, knob, v, err
}

func parseValue(k Knob, s string) (any, error) {
	switch k.Type {
	case KnobBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return nil, fmt.Errorf("knob %q: %q is not a bool", k.Name, s)
		}
		return b, nil
	case KnobInt:
		n, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("knob %q: %q is not an int", k.Name, s)
		}
		return n, nil
	case KnobFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("knob %q: %q is not a float", k.Name, s)
		}
		return f, nil
	case KnobDuration:
		d, err := time.ParseDuration(s)
		if err != nil {
			return nil, fmt.Errorf("knob %q: %q is not a duration (try 10ms, 2s)", k.Name, s)
		}
		return d, nil
	}
	return nil, fmt.Errorf("knob %q: unsupported type %v", k.Name, k.Type)
}

// Bool returns a validated bool knob.
func (v Values) Bool(name string) bool { return v[name].(bool) }

// Int returns a validated int knob.
func (v Values) Int(name string) int { return v[name].(int) }

// Float returns a validated float knob.
func (v Values) Float(name string) float64 { return v[name].(float64) }

// Duration returns a validated duration knob.
func (v Values) Duration(name string) time.Duration { return v[name].(time.Duration) }

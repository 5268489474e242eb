package report

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// The JSON emitter produces one self-describing document per tigabench run:
// schema tag, run-wide generation parameters, and every experiment's report
// with typed, unit-carrying columns. Cells are emitted as bare JSON values
// (durations as integer nanoseconds) and decoded back through the column
// declarations, so Encode → Decode → Render reproduces the text output
// byte-for-byte — the property the round-trip test pins.

// Schema tags the document layout. Bump on incompatible changes so Decode
// refuses a generation it does not know.
const Schema = "tiga-report/v1"

// Generated records the run-wide parameters the document was produced under.
type Generated struct {
	Seed     int64 `json:"seed"`
	Quick    bool  `json:"quick,omitempty"`
	CPUScale int   `json:"cpu_scale,omitempty"`
}

// Document is the machine-readable artifact: every experiment of one
// tigabench invocation.
type Document struct {
	Schema      string    `json:"schema"`
	Generated   Generated `json:"generated"`
	Experiments []*Report `json:"experiments"`
}

// Encode writes the document as indented JSON.
func (d *Document) Encode(w io.Writer) error {
	if d.Schema == "" {
		d.Schema = Schema
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Decode parses a document and validates its schema tag.
func Decode(r io.Reader) (*Document, error) {
	var d Document
	dec := json.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("report: decode: %w", err)
	}
	if d.Schema != Schema {
		return nil, fmt.Errorf("report: document schema %q, want %q", d.Schema, Schema)
	}
	return &d, nil
}

// MarshalJSON emits the kind's stable string name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON inverts MarshalJSON.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	kk, err := kindFromString(s)
	if err != nil {
		return err
	}
	*k = kk
	return nil
}

// MarshalJSON emits the cell as its bare value: string, integer, float, or
// integer nanoseconds for durations. The column carries the kind, so no
// per-cell type tag is needed.
func (c Cell) MarshalJSON() ([]byte, error) {
	switch c.Kind {
	case String:
		return json.Marshal(c.Str)
	case Int:
		return json.Marshal(c.Int)
	case Float:
		return json.Marshal(c.Float)
	case Duration:
		return json.Marshal(int64(c.Dur))
	}
	return nil, fmt.Errorf("report: cell kind %v", c.Kind)
}

// tableJSON mirrors Table with rows as raw values, so UnmarshalJSON can
// coerce each cell through its column's declared kind.
type tableJSON struct {
	ID      string            `json:"id,omitempty"`
	Title   string            `json:"title,omitempty"`
	Gap     bool              `json:"gap,omitempty"`
	Meta    map[string]string `json:"meta,omitempty"`
	Columns []Column          `json:"columns,omitempty"`
	Rows    [][]any           `json:"rows,omitempty"`
	Notes   []string          `json:"notes,omitempty"`
}

// UnmarshalJSON rebuilds typed cells from bare JSON values using the column
// declarations.
func (t *Table) UnmarshalJSON(b []byte) error {
	var raw tableJSON
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	*t = Table{ID: raw.ID, Title: raw.Title, Gap: raw.Gap, Meta: raw.Meta,
		Columns: raw.Columns, Notes: raw.Notes}
	for ri, row := range raw.Rows {
		if len(row) != len(raw.Columns) {
			return fmt.Errorf("report: table %q row %d has %d cells for %d columns",
				raw.ID, ri, len(row), len(raw.Columns))
		}
		cells := make([]Cell, len(row))
		for i, v := range row {
			c, err := cellFromJSON(raw.Columns[i].Kind, v)
			if err != nil {
				return fmt.Errorf("report: table %q row %d column %q: %w",
					raw.ID, ri, raw.Columns[i].Name, err)
			}
			cells[i] = c
		}
		t.Rows = append(t.Rows, cells)
	}
	return nil
}

// cellFromJSON coerces one decoded JSON value to the column's kind.
// encoding/json hands every number over as float64; integers and durations
// in the experiments' range (well under 2^53) convert back exactly.
func cellFromJSON(k Kind, v any) (Cell, error) {
	switch k {
	case String:
		s, ok := v.(string)
		if !ok {
			return Cell{}, fmt.Errorf("want string, got %T", v)
		}
		return Str(s), nil
	case Int:
		f, ok := v.(float64)
		if !ok {
			return Cell{}, fmt.Errorf("want number, got %T", v)
		}
		return CountOf(int64(f)), nil
	case Float:
		f, ok := v.(float64)
		if !ok {
			return Cell{}, fmt.Errorf("want number, got %T", v)
		}
		return Num(f), nil
	case Duration:
		f, ok := v.(float64)
		if !ok {
			return Cell{}, fmt.Errorf("want number, got %T", v)
		}
		return Dur(time.Duration(int64(f))), nil
	}
	return Cell{}, fmt.Errorf("unknown kind %v", k)
}

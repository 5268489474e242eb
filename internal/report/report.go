// Package report is the typed result model every experiment builds instead
// of printing: a Report is an ordered list of named tables whose rows hold
// typed cells (strings, counts, floats, durations) under unit-carrying
// columns. Renderers turn the same model into the paper's text presentation
// (byte-identical to the pre-model fmt output on defaults), a self-describing
// JSON document CI archives, or CSV for spreadsheet tooling. The model is the contract: experiments know nothing
// about presentation, renderers know nothing about protocols.
package report

import (
	"fmt"
	"time"
)

// Kind is the value type of a column (and of every cell under it).
type Kind int

// Cell value kinds.
const (
	String Kind = iota
	Int
	Float
	Duration
)

func (k Kind) String() string {
	switch k {
	case String:
		return "string"
	case Int:
		return "int"
	case Float:
		return "float"
	case Duration:
		return "duration"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// kindFromString inverts Kind.String (JSON decoding).
func kindFromString(s string) (Kind, error) {
	for _, k := range []Kind{String, Int, Float, Duration} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("report: unknown column kind %q", s)
}

// Unit names what a column measures, carried into the JSON/CSV emitters so
// the artifact is self-describing. Text rendering ignores units (the headers
// already spell them out, e.g. "Thpt(txn/s)").
type Unit string

// The units the experiments report.
const (
	None    Unit = ""
	Rate    Unit = "txn/s"
	Percent Unit = "percent"
	Count   Unit = "count"
	Nanos   Unit = "ns" // durations; JSON/CSV cell values are nanoseconds
	Millis  Unit = "ms" // float columns already scaled to milliseconds
	Seconds Unit = "s"
)

// Column declares one table column: a machine name for the structured
// emitters, the text header, the value kind and unit, and the fixed-width
// text format (width, float precision, alignment, explicit sign).
type Column struct {
	Name   string `json:"name"`
	Header string `json:"header"`
	Kind   Kind   `json:"kind"`
	Unit   Unit   `json:"unit,omitempty"`
	Width  int    `json:"width"`
	Prec   int    `json:"prec,omitempty"`
	Left   bool   `json:"left,omitempty"`
	Sign   bool   `json:"sign,omitempty"`
}

// Col builds a right-aligned column; the fluent modifiers below cover the
// few deviations so experiment code stays one line per column.
func Col(name, header string, kind Kind, unit Unit, width int) Column {
	return Column{Name: name, Header: header, Kind: kind, Unit: unit, Width: width}
}

// WithPrec sets the float precision.
func (c Column) WithPrec(p int) Column { c.Prec = p; return c }

// AlignLeft left-aligns the column (string label columns).
func (c Column) AlignLeft() Column { c.Left = true; return c }

// WithSign always renders the sign (delta columns).
func (c Column) WithSign() Column { c.Sign = true; return c }

// Cell is one typed value. Exactly the field selected by Kind is meaningful;
// the constructors below are the only intended way to build one.
type Cell struct {
	Kind  Kind
	Str   string
	Int   int64
	Float float64
	Dur   time.Duration
}

// Str builds a string cell.
func Str(s string) Cell { return Cell{Kind: String, Str: s} }

// Num builds a float cell.
func Num(f float64) Cell { return Cell{Kind: Float, Float: f} }

// CountOf builds an int cell.
func CountOf(n int64) Cell { return Cell{Kind: Int, Int: n} }

// Dur builds a duration cell. Structured emitters keep full nanosecond
// precision; the text renderer rounds to milliseconds, matching the paper's
// presentation.
func Dur(d time.Duration) Cell { return Cell{Kind: Duration, Dur: d} }

// Table is one named block of a report: an optional title line, an optional
// header row derived from the columns, typed rows, and trailing note lines.
// A table with no columns and only a title or notes is a free-standing text
// element (section banners, "(no rows: ...)" remarks), so a report's tables
// in order reproduce the experiment's full text output.
type Table struct {
	// ID names the table for machine consumers; note-only tables may leave
	// it empty.
	ID string `json:"id,omitempty"`
	// Title is the text line printed above the header ("" = none).
	Title string `json:"title,omitempty"`
	// Gap prints a blank line before the title (every table but the first
	// of a report, in the paper's presentation).
	Gap bool `json:"gap,omitempty"`
	// Meta records the run conditions the rows were produced under:
	// protocol(s), topology, workload, clock, rates, seed, knob and
	// operating-point overrides. Keys are free-form but stable per table.
	Meta    map[string]string `json:"meta,omitempty"`
	Columns []Column          `json:"columns,omitempty"`
	Rows    [][]Cell          `json:"rows,omitempty"`
	// Notes are lines printed after the rows (e.g. "recovery time: 3.8 s").
	Notes []string `json:"notes,omitempty"`
}

// AddRow appends one row. It panics when the cell count or a cell kind does
// not match the declared columns — a mismatch is a bug in the experiment,
// and catching it at build time keeps every renderer trivially total.
func (t *Table) AddRow(cells ...Cell) *Table {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("report: table %q row has %d cells for %d columns", t.ID, len(cells), len(t.Columns)))
	}
	for i, c := range cells {
		if c.Kind != t.Columns[i].Kind {
			panic(fmt.Sprintf("report: table %q column %q wants %v, got %v",
				t.ID, t.Columns[i].Name, t.Columns[i].Kind, c.Kind))
		}
	}
	t.Rows = append(t.Rows, cells)
	return t
}

// Column returns the cells under the named column, one per row in row order
// — how tests read an experiment's typed results. It panics on a name the
// table does not declare: like AddRow's mismatch, that is a bug in the caller.
func (t *Table) Column(name string) []Cell {
	for i, c := range t.Columns {
		if c.Name == name {
			cells := make([]Cell, len(t.Rows))
			for r, row := range t.Rows {
				cells[r] = row[i]
			}
			return cells
		}
	}
	panic(fmt.Sprintf("report: table %q has no column %q", t.ID, name))
}

// Note appends a trailing note line.
func (t *Table) Note(format string, args ...any) *Table {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
	return t
}

// SetMeta records one metadata key, allocating the map as needed.
func (t *Table) SetMeta(key, value string) *Table {
	if t.Meta == nil {
		t.Meta = make(map[string]string)
	}
	t.Meta[key] = value
	return t
}

// Report is one experiment's full result: named tables in presentation
// order.
type Report struct {
	// Name is the experiment's registry name (e.g. "fig7").
	Name   string   `json:"name"`
	Tables []*Table `json:"tables"`
}

// New starts an empty report.
func New(name string) *Report { return &Report{Name: name} }

// Add appends a table and returns it for chaining.
func (r *Report) Add(t *Table) *Table {
	r.Tables = append(r.Tables, t)
	return t
}

// AddNote appends a free-standing note line as its own table element.
func (r *Report) AddNote(line string) {
	r.Add(&Table{Notes: []string{line}})
}

// Find returns the first table with the given ID.
func (r *Report) Find(id string) *Table {
	for _, t := range r.Tables {
		if t.ID == id {
			return t
		}
	}
	return nil
}

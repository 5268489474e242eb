package report

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestCellFormatting pins every fixed-width cell format the experiments use
// against the fmt verbs the pre-model code printed with. A regression here
// means the text renderer no longer reproduces the paper's presentation.
func TestCellFormatting(t *testing.T) {
	d := 1702*time.Millisecond + 345*time.Microsecond
	cases := []struct {
		name string
		col  Column
		cell Cell
		want string
	}{
		// %-12s: protocol labels.
		{"proto", Col("protocol", "Protocol", String, None, 12).AlignLeft(), Str("2PL+Paxos"), fmt.Sprintf("%-12s", "2PL+Paxos")},
		// %12.0f: throughput columns.
		{"thpt", Col("thpt", "Thpt(txn/s)", Float, Rate, 12), Num(11452.49), fmt.Sprintf("%12.0f", 11452.49)},
		// %10.2f: sweep X axis (rate or skew).
		{"x", Col("rate", "rate/coord", Float, Rate, 10).WithPrec(2), Num(250), fmt.Sprintf("%10.2f", 250.0)},
		// %9.1f: commit rate.
		{"commit", Col("commit", "Commit%", Float, Percent, 9).WithPrec(1), Num(99.95), fmt.Sprintf("%9.1f", 99.95)},
		// %12v with ms rounding: latency percentiles.
		{"p50", Col("p50", "p50", Duration, Nanos, 12), Dur(d), fmt.Sprintf("%12v", d.Round(time.Millisecond))},
		// %+8.1f: Table 2 deltas.
		{"delta", Col("dthpt", "Δthpt%", Float, Percent, 8).WithPrec(1).WithSign(), Num(-3.25), fmt.Sprintf("%+8.1f", -3.25)},
		{"delta+", Col("dthpt", "Δthpt%", Float, Percent, 8).WithPrec(1).WithSign(), Num(4.0), fmt.Sprintf("%+8.1f", 4.0)},
		// %16.3f: Table 3 clock error.
		{"clockerr", Col("err", "clock err (ms)", Float, Millis, 16).WithPrec(3), Num(0.123456), fmt.Sprintf("%16.3f", 0.123456)},
		// %5d: Fig 11 second index; %14d: message counts.
		{"sec", Col("sec", "sec", Int, Count, 5), CountOf(12), fmt.Sprintf("%5d", 12)},
		{"msgs", Col("msgs", "msgs sent", Int, Count, 14), CountOf(123456), fmt.Sprintf("%14d", 123456)},
		// %6.2f: Fig 12 skew.
		{"skew", Col("skew", "skew", Float, None, 6).WithPrec(2), Num(0.99), fmt.Sprintf("%6.2f", 0.99)},
		// Zero duration renders 0s, as the pre-model output did.
		{"zerodur", Col("p50", "p50", Duration, Nanos, 12), Dur(0), fmt.Sprintf("%12v", time.Duration(0))},
	}
	for _, tc := range cases {
		if got := tc.cell.text(tc.col); got != tc.want {
			t.Errorf("%s: text = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestHeaderAlignment pins the header row format: left-aligned columns pad
// right, everything else pads left, single-space separators.
func TestHeaderAlignment(t *testing.T) {
	tab := &Table{ID: "sweep", Columns: []Column{
		Col("protocol", "Protocol", String, None, 12).AlignLeft(),
		Col("rate", "rate/coord", Float, Rate, 10).WithPrec(2),
		Col("thpt", "Thpt(txn/s)", Float, Rate, 12),
		Col("commit", "Commit%", Float, Percent, 9).WithPrec(1),
		Col("p50", "p50", Duration, Nanos, 12),
		Col("p90", "p90", Duration, Nanos, 12),
	}}
	var buf bytes.Buffer
	tab.render(&buf)
	want := fmt.Sprintf("%-12s %10s %12s %9s %12s %12s\n",
		"Protocol", "rate/coord", "Thpt(txn/s)", "Commit%", "p50", "p90")
	if buf.String() != want {
		t.Fatalf("header = %q, want %q", buf.String(), want)
	}
}

// TestTableLayout pins the element order: gap line, title, header, rows,
// notes — and that note-only tables render as bare lines.
func TestTableLayout(t *testing.T) {
	r := New("demo")
	tab := r.Add(&Table{ID: "t", Title: "Demo — two rows", Gap: true, Columns: []Column{
		Col("name", "Name", String, None, 6).AlignLeft(),
		Col("n", "N", Int, Count, 4),
	}})
	tab.AddRow(Str("a"), CountOf(1))
	tab.AddRow(Str("b"), CountOf(22))
	tab.Note("done in %d steps", 2)
	r.AddNote("(free-standing note)")

	var buf bytes.Buffer
	Render(&buf, r)
	want := "\nDemo — two rows\n" +
		fmt.Sprintf("%-6s %4s\n", "Name", "N") +
		fmt.Sprintf("%-6s %4d\n", "a", 1) +
		fmt.Sprintf("%-6s %4d\n", "b", 22) +
		"done in 2 steps\n" +
		"(free-standing note)\n"
	if buf.String() != want {
		t.Fatalf("render:\n%q\nwant:\n%q", buf.String(), want)
	}
}

// TestAddRowValidation pins the build-time shape checks.
func TestAddRowValidation(t *testing.T) {
	tab := &Table{ID: "t", Columns: []Column{Col("n", "N", Int, Count, 4)}}
	for name, fn := range map[string]func(){
		"arity": func() { tab.AddRow(CountOf(1), CountOf(2)) },
		"kind":  func() { tab.AddRow(Str("x")) },
		"name":  func() { tab.Column("nosuch") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestColumnByName: the accessor returns one typed cell per row, in row
// order, under the named column.
func TestColumnByName(t *testing.T) {
	tab := buildDoc().Experiments[0].Find("main")
	labels, counts := tab.Column("label"), tab.Column("n")
	if len(labels) != 2 || labels[0].Str != "fast" || labels[1].Str != "slow" {
		t.Fatalf("label column = %+v", labels)
	}
	if counts[0].Int != 42 || counts[1].Int != 0 {
		t.Fatalf("n column = %+v", counts)
	}
	if got := tab.Column("p50")[1].Dur; got != 1702*time.Millisecond {
		t.Fatalf("p50[1] = %v", got)
	}
}

// buildDoc constructs a synthetic document exercising every cell kind,
// column attribute, and table shape (banner, notes, meta).
func buildDoc() *Document {
	r := New("synthetic")
	r.Add(&Table{Title: "Banner only", Gap: true})
	// A fig7-style announce table: columns for the text header, no rows.
	r.Add(&Table{ID: "announce", Title: "Banner with header", Gap: true,
		Columns: []Column{Col("x", "X", Int, Count, 4)}})
	tab := r.Add(&Table{ID: "main", Title: "Synthetic — all kinds", Gap: true,
		Meta: map[string]string{"topology": "geo4", "seed": "42"},
		Columns: []Column{
			Col("label", "Label", String, None, 10).AlignLeft(),
			Col("thpt", "Thpt(txn/s)", Float, Rate, 12),
			Col("commit", "Commit%", Float, Percent, 9).WithPrec(1),
			Col("dthpt", "Δ%", Float, Percent, 8).WithPrec(1).WithSign(),
			Col("p50", "p50", Duration, Nanos, 12),
			Col("n", "count", Int, Count, 7),
		}})
	tab.AddRow(Str("fast"), Num(11452.3), Num(99.95), Num(-12.5), Dur(55*time.Millisecond+123*time.Microsecond), CountOf(42))
	tab.AddRow(Str("slow"), Num(8.0002), Num(0), Num(3.75), Dur(1702*time.Millisecond), CountOf(0))
	tab.Note("recovery time: %.1f s", 3.8)
	r.AddNote("(no rows: none of the selected protocols run in this experiment)")
	return &Document{Generated: Generated{Seed: 42, Quick: true, CPUScale: 10},
		Experiments: []*Report{r}}
}

// TestJSONRoundTrip pins the artifact contract: Encode → Decode → Render is
// byte-identical to rendering the original model, and the decoded model
// preserves full (sub-millisecond) duration precision.
func TestJSONRoundTrip(t *testing.T) {
	doc := buildDoc()
	var orig bytes.Buffer
	for _, r := range doc.Experiments {
		Render(&orig, r)
	}

	var enc bytes.Buffer
	if err := doc.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bytes.NewReader(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Generated != doc.Generated {
		t.Fatalf("generated block %+v, want %+v", back.Generated, doc.Generated)
	}
	var rerender bytes.Buffer
	for _, r := range back.Experiments {
		Render(&rerender, r)
	}
	if rerender.String() != orig.String() {
		t.Fatalf("re-render differs:\n%q\nwant:\n%q", rerender.String(), orig.String())
	}
	// Full fidelity, not render-time rounding: the 55.123 ms cell survives.
	got := back.Experiments[0].Find("main").Rows[0][4].Dur
	if want := 55*time.Millisecond + 123*time.Microsecond; got != want {
		t.Fatalf("duration cell = %v, want %v", got, want)
	}
}

// TestDecodeRejectsWrongSchema pins the schema gate.
func TestDecodeRejectsWrongSchema(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"schema":"tiga-report/v0","experiments":[]}`)); err == nil {
		t.Fatal("decoded a document with a mismatched schema tag")
	}
	if _, err := Decode(strings.NewReader(`not json`)); err == nil {
		t.Fatal("decoded garbage")
	}
}

// TestCSV pins the flattened block shape and the bare-value cell encoding.
func TestCSV(t *testing.T) {
	doc := buildDoc()
	var buf bytes.Buffer
	if err := RenderCSV(&buf, doc.Experiments...); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "experiment,table,label,thpt(txn/s),commit(percent),dthpt(percent),p50(ns),n(count)" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "synthetic,main,fast,11452.3,99.95,-12.5,55123000,42") {
		t.Fatalf("csv row = %q", lines[1])
	}
	// Row-less tables contribute nothing — neither note-only banners nor
	// announce tables that declare columns purely for their text header.
	if strings.Contains(out, "Banner") || strings.Contains(out, "no rows") || strings.Contains(out, "announce") {
		t.Fatalf("csv leaked row-less tables:\n%s", out)
	}
}

package harness

import (
	"strings"
	"testing"
	"time"
)

// TestBreakdownHonoursSelectionAndOpCap: the instrumented set is filtered
// through -protocols, and the traced runs resolve their outstanding cap
// through the operating point like every other experiment. Throttling Tiga
// alone to one transaction in flight per coordinator must collapse its
// traced-transaction count far below the untouched baseline's.
func TestBreakdownHonoursSelectionAndOpCap(t *testing.T) {
	o := Options{Quick: true, Keys: 800, Seed: 42, Protocols: []string{"Tiga", "2PL+Paxos"},
		Ops: map[string]OpPoint{"Tiga": {Outstanding: 1}}}
	commit := Breakdown(o).Find("breakdown/commit")
	protos, txns := commit.Column("protocol"), commit.Column("txns")
	if len(protos) != 2 || protos[0].Str != "Tiga" || protos[1].Str != "2PL+Paxos" {
		t.Fatalf("commit table rows = %+v, want Tiga and 2PL+Paxos only", protos)
	}
	if tiga, base := txns[0].Float, txns[1].Float; tiga <= 0 || tiga > base/2 {
		t.Errorf("Tiga traced %.0f txns vs 2PL+Paxos %.0f: the outstanding cap did not reach the traced run", tiga, base)
	}
}

// TestBreakdownEmptyTraceRendersZeroRow: a run that commits nothing (every
// 2PC presumed aborted at once, no retries) renders a full-width zero row
// instead of panicking on a short one, and a selection with no instrumented
// protocol leaves the usual remark.
func TestBreakdownEmptyTraceRendersZeroRow(t *testing.T) {
	o := Options{Quick: true, Keys: 800, Seed: 42, Protocols: []string{"2PL+Paxos"},
		Knobs: map[string]map[string]any{"2PL+Paxos": {"vote-timeout": time.Nanosecond, "max-retries": 0}}}
	commit := Breakdown(o).Find("breakdown/commit")
	if len(commit.Rows) != 1 || commit.Column("txns")[0].Float != 0 || commit.Column("mean")[0].Dur != 0 {
		t.Fatalf("commit table rows = %+v, want one zero row", commit.Rows)
	}
	o = Options{Quick: true, Keys: 800, Seed: 42, Protocols: []string{"Janus"}}
	for _, tab := range Breakdown(o).Tables {
		if len(tab.Rows) != 0 || len(tab.Notes) != 2 || !strings.HasPrefix(tab.Notes[0], "(no rows: ") {
			t.Errorf("%s with no instrumented protocol selected: rows %d, notes %q", tab.ID, len(tab.Rows), tab.Notes)
		}
	}
}

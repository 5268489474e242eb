package harness

import (
	"bytes"
	"testing"

	"tiga/internal/pool"
	"tiga/internal/report"
)

// TestTxnPathDeterminism pins the allocation work of the txn path — interned
// keys, pooled wire messages and records, scratch-slice reuse — to the
// simulator's core guarantee: a fixed seed renders byte-identical reports no
// matter how many sweep workers run the points. A regression here means some
// recycled object leaked state between transactions, or a pool was touched
// from outside its owning simulation. The double-free detector (pool.Check)
// is armed for the duration so a recycle bug fails loudly rather than as a
// silent byte diff.
func TestTxnPathDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full (quick-mode) experiment cells; skipped under -short")
	}
	pool.Check = true
	defer func() { pool.Check = false }()

	render := func(rep *report.Report) []byte {
		var buf bytes.Buffer
		report.Render(&buf, rep)
		return buf.Bytes()
	}
	cases := []struct {
		name string
		run  func(workers int) []byte
	}{
		// table1 drives the closed-loop saturation search: pooled Tiga
		// messages, pendingTxn envelopes, and the slice-backed store.
		{"table1", func(workers int) []byte {
			o := Options{Quick: true, Keys: 800, Seed: 42, Workers: workers,
				Protocols: []string{"Tiga"}}
			return render(Table1(o))
		}},
		// scaleout drives the open-loop path: pooled job envelopes, the
		// admission gate, and the lockocc record freelists (2PL+Paxos).
		{"scaleout", func(workers int) []byte {
			o := Options{Quick: true, Keys: 24_000, Seed: 42, Workers: workers,
				Protocols: []string{"Tiga", "2PL+Paxos"},
				Ops: map[string]OpPoint{
					"Tiga":      {SaturationRate: 500, Outstanding: 150},
					"2PL+Paxos": {SaturationRate: 250, Outstanding: 100},
				}}
			return render(ScaleOut(o))
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			serial, parallel := tc.run(1), tc.run(8)
			if !bytes.Equal(serial, parallel) {
				t.Fatalf("%s: rendered report differs between -workers 1 and 8\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
					tc.name, serial, parallel)
			}
		})
	}
}

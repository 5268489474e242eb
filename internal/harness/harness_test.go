package harness

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"tiga/internal/checker"
	"tiga/internal/clocks"
	"tiga/internal/protocol"
	"tiga/internal/tiga"
	"tiga/internal/tpcc"
	"tiga/internal/txn"
	"tiga/internal/workload"
)

func microSpec(protocol string, seed int64) (ClusterSpec, *workload.MicroBench) {
	gen := workload.NewMicroBench(3, 2000, 0.5)
	return ClusterSpec{
		Protocol: protocol, Shards: 3, F: 1,
		Clock: clocks.ModelChrony, CoordsPerRegion: 1, CoordsRemote: 1,
		Seed: seed, Gen: gen,
	}, gen
}

// TestAllProtocolsMicroBench runs every registered protocol on a small
// MicroBench load and requires a high commit rate plus sane latencies.
func TestAllProtocolsMicroBench(t *testing.T) {
	for _, p := range protocol.Names() {
		p := p
		t.Run(p, func(t *testing.T) {
			spec, gen := microSpec(p, 42)
			d := Build(spec)
			res := RunLoad(d, gen, LoadSpec{
				RatePerCoord: 50, Warmup: time.Second, Duration: 4 * time.Second,
				Seed: 7, Check: true, // ignored unless the system is Checkable
			})
			run := res.Run
			if run.Counters.Submitted == 0 {
				t.Fatal("no transactions submitted")
			}
			cr := run.Counters.CommitRate()
			// The optimistic / lock-based baselines abort under contention
			// even at modest load; require a lower floor for them.
			floor := 95.0
			switch p {
			case "2PL+Paxos", "OCC+Paxos", "Tapir":
				floor = 60
			}
			if cr < floor {
				t.Fatalf("commit rate %.1f%% too low (%d/%d committed)", cr,
					run.Counters.Committed, run.Counters.Submitted)
			}
			p50 := run.Lat.Percentile(50)
			if p50 <= 0 || p50 > 3*time.Second {
				t.Fatalf("implausible p50 latency %v", p50)
			}
			if _, ok := d.Sys.(protocol.Checkable); ok {
				if len(res.Commits) == 0 {
					t.Fatal("checkable system recorded no commits")
				}
				if err := checker.StrictSerializability(res.Commits); err != nil {
					t.Fatal(err)
				}
				if err := checker.UniqueTimestamps(res.Commits); err != nil {
					t.Fatal(err)
				}
			}
			t.Logf("%s: %s", p, run)
		})
	}
}

// TestLatencyOrdering checks the headline latency relationships of Figs 7–8:
// in the remote region (Hong Kong), Tiga's fast path beats the layered
// protocols by multiple WRTTs.
func TestLatencyOrdering(t *testing.T) {
	p50 := make(map[string]time.Duration)
	for _, p := range []string{"Tiga", "2PL+Paxos", "Janus"} {
		spec, gen := microSpec(p, 99)
		d := Build(spec)
		res := RunLoad(d, gen, LoadSpec{RatePerCoord: 40, Warmup: time.Second, Duration: 4 * time.Second, Seed: 3})
		hk := res.Run.ByRegion["Hong Kong"]
		if hk == nil || hk.Count() == 0 {
			t.Fatalf("%s: no Hong Kong commits", p)
		}
		p50[p] = hk.Percentile(50)
		t.Logf("%s HK p50 = %v", p, p50[p])
	}
	// Tiga's 1-WRTT fast path must beat both the consolidated 2-WRTT design
	// and the layered 3-WRTT design by a wide margin (Fig 8).
	if p50["Tiga"] >= p50["Janus"] {
		t.Errorf("Tiga HK p50 (%v) should beat Janus (%v)", p50["Tiga"], p50["Janus"])
	}
	if p50["Tiga"] >= p50["2PL+Paxos"] {
		t.Errorf("Tiga HK p50 (%v) should beat 2PL+Paxos (%v)", p50["Tiga"], p50["2PL+Paxos"])
	}
}

// payments passes a TPC-C job stream through and records each Payment's
// history row — a store cannot list its rows — with the number of its
// attempts that paid the warehouse and then failed the customer check on
// another shard: such an attempt committed its warehouse piece, so its restart
// pays the warehouse again (EXPERIMENTS.md, "Known deviations"). sameShard
// counts the failed checks that had warehouse and customer on one shard, which
// pay nothing.
type payments struct {
	*tpcc.Gen
	repaid    map[string]int64
	sameShard int
}

func (p *payments) Next(rng *rand.Rand) workload.Job {
	job := p.Gen.Next(rng)
	if job.Label != "payment" {
		return job
	}
	next, row := job.I.Next, ""
	job.I.Next = func(stage int, prev *txn.Result) (*txn.Txn, bool, bool) {
		t, done, abort := next(stage, prev)
		switch {
		case abort && len(prev.PerShard) == 1:
			p.sameShard++
		case abort:
			p.repaid[row]++
		}
		if t != nil {
			for i := range t.Pieces {
				for _, k := range t.Pieces[i].WriteSet {
					if strings.HasPrefix(k, "h:") {
						row = k
						p.repaid[row] += 0 // the row is drawn; nothing repaid yet
					}
				}
			}
		}
		return t, done, abort
	}
	return job
}

// TestTigaTPCC runs the TPC-C mix (including multi-shot Payment/Order-Status)
// on Tiga and verifies money conservation, TPC-C's consistency condition 1:
// per warehouse, w_ytd = Σ d_ytd = Σ of the amounts in its history rows —
// plus, for the one known deviation, the amount of every remote-customer
// attempt that paid the warehouse before its customer check failed. A
// same-shard Payment whose check fails pays nothing, and the run has some.
func TestTigaTPCC(t *testing.T) {
	gen := &payments{Gen: tpcc.New(tpcc.TestConfig(3)), repaid: map[string]int64{}}
	spec := ClusterSpec{
		Protocol: "Tiga", Shards: 3, F: 1,
		Clock: clocks.ModelChrony, CoordsPerRegion: 1, CoordsRemote: 1,
		Seed: 5, Gen: gen,
	}
	d := Build(spec)
	res := RunLoad(d, gen, LoadSpec{RatePerCoord: 30, Warmup: time.Second, Duration: 4 * time.Second, Seed: 11})
	run := res.Run
	if run.Counters.CommitRate() < 90 {
		t.Fatalf("TPC-C commit rate %.1f%% too low (%d/%d)", run.Counters.CommitRate(),
			run.Counters.Committed, run.Counters.Submitted)
	}
	t.Logf("tpcc on tiga: %s", run)
	// Replica consistency: leaders and followers converge per shard. Log
	// inspection is Tiga-specific, so reach past the registry here.
	c := d.Sys.(*tiga.Cluster)
	for sh := 0; sh < 3; sh++ {
		lead := c.Servers[sh][0]
		for rep := 1; rep < 3; rep++ {
			f := c.Servers[sh][rep]
			ll, fl := lead.LogIDs(), f.LogIDs()
			n := len(fl)
			if len(ll) < n {
				n = len(ll)
			}
			for i := 0; i < n; i++ {
				if ll[i] != fl[i] {
					t.Fatalf("shard %d: replica %d log diverges at %d", sh, rep, i)
				}
			}
		}
	}
	smallIntsIntact(t)
	var paid, repaid int64
	for w := 1; w <= tpcc.TestConfig(3).Warehouses; w++ {
		st := c.Leader(gen.ShardOf(w)).Store()
		get := func(format string, args ...any) int64 { return txn.DecodeInt(st.Get(fmt.Sprintf(format, args...))) }
		var dYtd, history, twice int64
		for dist := 1; dist <= tpcc.TestConfig(3).Districts; dist++ {
			dYtd += get("d_ytd:%d:%d", w, dist)
		}
		for row, n := range gen.repaid {
			if strings.HasPrefix(row, fmt.Sprintf("h:%d:", w)) {
				amount := get("%s", row)
				history, twice = history+amount, twice+n*amount
			}
		}
		if wYtd := get("w_ytd:%d", w); wYtd != dYtd || wYtd != history+twice {
			t.Errorf("warehouse %d: w_ytd %d, sum of d_ytd %d, sum of history amounts %d + %d paid again after a remote check failed: want w_ytd = sum of d_ytd = the sum",
				w, wYtd, dYtd, history, twice)
		}
		paid, repaid = paid+history, repaid+twice
	}
	t.Logf("paid %d; %d same-shard payments failed their check, remote-customer ones paid %d again", paid, gen.sameShard, repaid)
	if paid == 0 || gen.sameShard == 0 {
		t.Fatalf("the run must commit payments (paid %d) and fail some same-shard checks (%d)", paid, gen.sameShard)
	}
}

// smallIntsIntact fails the test unless every value txn.EncodeInt serves from
// its shared table still decodes to itself. Every store on every node holds
// those bytes, so one write into a stored value anywhere would corrupt all of
// them, silently.
func smallIntsIntact(t *testing.T) {
	t.Helper()
	for v := int64(-txn.SmallInts); v < txn.SmallInts; v++ {
		if got := txn.DecodeInt(txn.EncodeInt(v)); got != v {
			t.Fatalf("txn.EncodeInt(%d) decodes to %d: something wrote into a shared stored value", v, got)
		}
	}
}

// TestTPCCOnBaselines exercises the interactive chains on a layered protocol
// and a deterministic protocol.
func TestTPCCOnBaselines(t *testing.T) {
	for _, p := range []string{"2PL+Paxos", "Calvin+", "Janus"} {
		p := p
		t.Run(p, func(t *testing.T) {
			gen := tpcc.New(tpcc.TestConfig(3))
			spec := ClusterSpec{
				Protocol: p, Shards: 3, F: 1,
				Clock: clocks.ModelChrony, CoordsPerRegion: 1,
				Seed: 6, Gen: gen,
			}
			d := Build(spec)
			res := RunLoad(d, gen, LoadSpec{RatePerCoord: 15, Warmup: time.Second, Duration: 3 * time.Second, Seed: 13})
			if res.Run.Counters.CommitRate() < 70 {
				t.Fatalf("%s TPC-C commit rate %.1f%% too low", p, res.Run.Counters.CommitRate())
			}
			t.Logf("%s: %s", p, res.Run)
		})
	}
}

// TestTigaEffectExactlyOnce verifies committed MicroBench increments are
// applied exactly once on the leader stores.
func TestTigaEffectExactlyOnce(t *testing.T) {
	spec, gen := microSpec("Tiga", 21)
	d := Build(spec)
	res := RunLoad(d, gen, LoadSpec{RatePerCoord: 40, Warmup: 0, Duration: 3 * time.Second, Seed: 17, Check: true})
	if res.Run.Counters.Committed == 0 {
		t.Fatal("nothing committed")
	}
	c := d.Sys.(protocol.Checkable)
	err := res.Counter.Verify(func(key string) int64 {
		var sh int
		var idx int
		fmt.Sscanf(key, "k%d-%d", &sh, &idx)
		return txn.DecodeInt(c.LeaderStore(sh).Get(key))
	})
	if err != nil {
		t.Fatal(err)
	}
}

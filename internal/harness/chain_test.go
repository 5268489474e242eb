package harness

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tiga/internal/pool"
	"tiga/internal/simnet"
	"tiga/internal/txn"
)

// refRunChain is the chain driver as it was before a chain kept one state: a
// recursive closure, and a new closure per stage. It is kept verbatim
// (renamed) as the reference TestChainMatchesTheReference compares runChain
// with.
func refRunChain(d *Deployment, coord int, ic txn.Interactive, restarts, maxRestarts int,
	finish func(txn.Result, *txn.Txn)) {

	var stage func(n int, prev *txn.Result, retries int)
	stage = func(n int, prev *txn.Result, retries int) {
		t, done, abort := ic.Next(n, prev)
		if abort {
			if restarts >= maxRestarts {
				finish(txn.Result{Aborted: true, Retries: retries}, nil)
				return
			}
			// Brief fixed backoff, then restart.
			d.Sim.After(5*time.Millisecond, func() {
				refRunChain(d, coord, ic, restarts+1, maxRestarts, finish)
			})
			return
		}
		if done || t == nil {
			r := txn.Result{OK: true, Retries: retries + restarts}
			if prev != nil {
				r.PerShard = prev.PerShard
				r.FastPath = prev.FastPath
				r.TS = prev.TS
			}
			finish(r, nil)
			return
		}
		d.Sys.Submit(coord, t, func(r txn.Result) {
			if !r.OK {
				if restarts >= maxRestarts {
					finish(txn.Result{Aborted: true, Retries: retries + r.Retries}, nil)
					return
				}
				d.Sim.After(5*time.Millisecond, func() {
					refRunChain(d, coord, ic, restarts+1, maxRestarts, finish)
				})
				return
			}
			stage(n+1, &r, retries+r.Retries)
		})
	}
	stage(0, nil, 0)
}

// scripted is a System whose every outcome is drawn from its rng: a stage
// completes 10–30 ms after it was submitted, commits with probability 0.8 —
// with 0–2 protocol retries, on the fast path or not, at the time it completes
// — and fails otherwise.
type scripted struct {
	sim *simnet.Sim
	rng *rand.Rand
}

func (s *scripted) Start() {}

func (s *scripted) Submit(coord int, t *txn.Txn, done func(txn.Result)) {
	ok := s.rng.Float64() < 0.8
	r := txn.Result{OK: ok, Aborted: !ok, Retries: s.rng.Intn(3), FastPath: s.rng.Intn(2) == 0,
		PerShard: []txn.ShardRet{{Shard: coord, Ret: []byte(t.Label)}}}
	s.sim.After(time.Duration(10+s.rng.Intn(21))*time.Millisecond, func() {
		r.TS = txn.Timestamp{Time: s.sim.Now()}
		done(r)
	})
}

// scriptedChain is an interactive transaction of up to stages stages whose
// validation fails after a stage with probability 0.2; each stage's label
// names what the previous one returned, so a stage built from the wrong result
// shows. starts counts the times it is run from stage 0.
func scriptedChain(rng *rand.Rand, stages int, starts *int) txn.Interactive {
	return chainFunc(func(stage int, prev *txn.Result) (*txn.Txn, bool, bool) {
		if stage == 0 {
			*starts++
		}
		if stage > 0 && rng.Float64() < 0.2 {
			return nil, true, true
		}
		if stage == stages {
			return nil, rng.Intn(2) == 0, false // done, or no stage at all
		}
		after := "nothing"
		if prev != nil {
			after = fmt.Sprintf("%+v", *prev)
		}
		return &txn.Txn{Label: fmt.Sprintf("stage %d after %s", stage, after)}, false, false
	})
}

// chainFunc is a chain a test writes as a closure.
type chainFunc func(stage int, prev *txn.Result) (*txn.Txn, bool, bool)

func (f chainFunc) Next(stage int, prev *txn.Result) (*txn.Txn, bool, bool) { return f(stage, prev) }

// TestChainMatchesTheReference: runChain and the driver it replaced finish
// the same chains at the same simulated times with the same results —
// committed or aborted, retries and restarts counted alike, the last stage's
// results, fast-path flag and timestamp carried out — over a scripted system
// that fails stages and chains that fail validation, with 0–3 restarts
// allowed. Every chain record comes home, and none is recycled twice.
func TestChainMatchesTheReference(t *testing.T) {
	pool.Check = true
	defer func() { pool.Check = false }()
	const n = 400
	type driver func(d *Deployment, coord int, ic txn.Interactive, maxRestarts int, finish func(txn.Result, *txn.Txn))
	finishes := func(run driver) (out []string, starts, aborted int) {
		sim := simnet.NewSim(1)
		rng := rand.New(rand.NewSource(7))
		d := &Deployment{Sim: sim, Sys: &scripted{sim: sim, rng: rng}}
		for i := 0; i < n; i++ {
			sim.After(time.Duration(i)*time.Millisecond, func() {
				run(d, i%4, scriptedChain(rng, 1+i%3, &starts), i%4, func(r txn.Result, t *txn.Txn) {
					out = append(out, fmt.Sprintf("chain %d at %v: %+v %v", i, sim.Now(), r, t))
					if r.Aborted {
						aborted++
					}
				})
			})
		}
		sim.Run(time.Hour)
		return out, starts, aborted
	}
	var st *loadState
	got, _, _ := finishes(func(d *Deployment, coord int, ic txn.Interactive, maxRestarts int, finish func(txn.Result, *txn.Txn)) {
		if st == nil {
			st = &loadState{d: d, chains: pool.New[chain]()}
		}
		st.runChain(coord, ic, maxRestarts, finish)
	})
	if out := st.chains.News - st.chains.Idle(); out != 0 {
		t.Errorf("%d of %d chain records never came back to the pool", out, st.chains.News)
	}
	want, starts, aborted := finishes(func(d *Deployment, coord int, ic txn.Interactive, maxRestarts int, finish func(txn.Result, *txn.Txn)) {
		refRunChain(d, coord, ic, 0, maxRestarts, finish)
	})
	if len(want) != n || starts == n || aborted == 0 || aborted == n {
		t.Fatalf("the reference finished %d of %d chains, restarted %d times and aborted %d: the script exercises too little",
			len(want), n, starts-n, aborted)
	}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("finish %d of %d:\n runChain  %v\n reference %s", i, len(got), got[i:min(i+1, len(got))], want[i])
		}
	}
}

package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"tiga/internal/pool"
	"tiga/internal/protocol"
	"tiga/internal/txn"
)

// keeper is a System that keeps every result its coordinators report, with a
// deep copy taken when the callback ran.
type keeper struct {
	protocol.System
	kept []kept
}

type kept struct {
	got, then txn.Result
	local     bool
}

func (k *keeper) keep(done func(txn.Result), local bool) func(txn.Result) {
	return func(r txn.Result) {
		then := r
		then.PerShard = append([]txn.ShardRet(nil), r.PerShard...)
		for i := range then.PerShard {
			then.PerShard[i].Ret = bytes.Clone(r.PerShard[i].Ret)
		}
		then.Reads = append([]txn.ReadObs(nil), r.Reads...)
		k.kept = append(k.kept, kept{got: r, then: then, local: local})
		done(r)
	}
}

func (k *keeper) Submit(coord int, t *txn.Txn, done func(txn.Result)) {
	k.System.Submit(coord, t, k.keep(done, false))
}

func (k *keeper) SubmitLocalRead(coord int, t *txn.Txn, done func(txn.Result)) {
	k.System.(protocol.SnapshotReadable).SubmitLocalRead(coord, t, k.keep(done, true))
}

func (k *keeper) SafeTimes() []time.Duration { return k.System.(protocol.SnapshotReadable).SafeTimes() }

// TestResultsOutliveTheirRecords: a result's PerShard and Reads are the
// caller's for good. Every result of a short run is kept and compared, after
// the run, with the copy taken when it was reported: Tiga's coordinator and
// its local reads (budget/open-reads) and a coord.Table baseline
// (budget/closed-2pl) recycle their records thousands of times meanwhile, so
// a result that shared a buffer with a record, or with a later result, shows
// here.
func TestResultsOutliveTheirRecords(t *testing.T) {
	pool.Check = true
	defer func() { pool.Check = false }()
	for _, shape := range []string{"budget/open-reads", "budget/closed-2pl"} {
		t.Run(strings.TrimPrefix(shape, "budget/"), func(t *testing.T) {
			spec, load, err := LookupShape(shape)
			if err != nil {
				t.Fatal(err)
			}
			if err := spec.EnsureGen(); err != nil {
				t.Fatal(err)
			}
			d := Build(spec)
			k := &keeper{System: d.Sys}
			d.Sys = k
			RunLoad(d, spec.Gen, load)
			var commits, locals int
			for i, x := range k.kept {
				if !x.got.OK {
					continue
				}
				if x.local {
					locals++
				} else {
					commits++
				}
				if !reflect.DeepEqual(x.got.PerShard, x.then.PerShard) || !reflect.DeepEqual(x.got.Reads, x.then.Reads) {
					t.Fatalf("result %d of %d changed after it was reported:\n now  %+v %+v\n then %+v %+v",
						i, len(k.kept), x.got.PerShard, x.got.Reads, x.then.PerShard, x.then.Reads)
				}
			}
			if commits == 0 || load.LocalReads != (locals > 0) {
				t.Fatalf("%d commits and %d local reads: the run checks too little", commits, locals)
			}
		})
	}
}

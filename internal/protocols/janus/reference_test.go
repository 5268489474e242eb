package janus

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"tiga/internal/txn"
)

// refPending is the coordinator's vote tally as it was before votes became
// per-position slots and bitmasks: maps of maps by shard and replica, and
// votes grouped by a string encoding of their dependency list. preaccept and
// accept are the old onPreacceptRep and onAcceptRep verbatim up to their
// sends (F and the super quorum are passed in); depsKey and sortedDeps are
// the old helpers. It is the oracle TestVoteTallyMatchesReference holds the
// tally to.
type refPending struct {
	t        *txn.Txn
	votes    map[int]map[int]refVote
	accepts  map[int]map[int]bool
	deps     []uint64
	fastPath bool
}

type refVote struct {
	Shard   int
	Replica int
	Deps    []uint64
}

func newRefPending(t *txn.Txn, fastPath bool) *refPending {
	return &refPending{t: t, fastPath: fastPath,
		votes:   make(map[int]map[int]refVote),
		accepts: make(map[int]map[int]bool)}
}

// preaccept records m and reports whether the pre-accept round is decided.
func (p *refPending) preaccept(f int, m refVote) bool {
	byRep := p.votes[m.Shard]
	if byRep == nil {
		byRep = make(map[int]refVote)
		p.votes[m.Shard] = byRep
	}
	byRep[m.Replica] = m
	// Per shard: fast if a super quorum reports identical deps.
	n := 2*f + 1
	sq := 1 + f + (f+1)/2
	union := make(map[uint64]bool)
	for i := range p.t.Pieces {
		votes := p.votes[p.t.Pieces[i].Shard()]
		if len(votes) < sq {
			return false
		}
		counts := make(map[string]int)
		fastQuorum := false
		for _, v := range votes {
			k := depsKey(v.Deps)
			counts[k]++
			if counts[k] >= sq {
				fastQuorum = true
			}
		}
		if !fastQuorum {
			if len(votes) < n {
				return false // more votes may still form a fast quorum
			}
			p.fastPath = false
		}
		for _, v := range votes {
			for _, d := range v.Deps {
				union[d] = true
			}
		}
	}
	p.deps = sortedDeps(union)
	return true
}

// accept records replica's accept of shard and reports whether every shard
// has F+1.
func (p *refPending) accept(f, shard, replica int) bool {
	byRep := p.accepts[shard]
	if byRep == nil {
		byRep = make(map[int]bool)
		p.accepts[shard] = byRep
	}
	byRep[replica] = true
	for i := range p.t.Pieces {
		if len(p.accepts[p.t.Pieces[i].Shard()]) < f+1 {
			return false
		}
	}
	return true
}

func depsKey(deps []uint64) string {
	b := make([]byte, 0, len(deps)*8)
	for _, d := range deps {
		for i := 0; i < 8; i++ {
			b = append(b, byte(d>>(8*i)))
		}
	}
	return string(b)
}

func sortedDeps(set map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestVoteTallyMatchesReference feeds the tally and the reference the same
// seeded reply sequences — F = 1 and F = 2, one to three shards, replies in
// any order, duplicates (re-sent, or with a different list), replies that
// never arrive, empty and nil dependency lists, the fast-path knob off — and
// requires the same verdict after every reply, the same fastPath, and the
// same dependencies once decided; then, for a slow-path decision, the same
// verdict after every accept. One pending record and one coordinator per F
// serve every sequence, as the pools reuse them.
func TestVoteTallyMatchesReference(t *testing.T) {
	lists := [][]uint64{nil, {}, {7}, {3, 7}, {3}, {1, 3, 7, 9}, {9}}
	coords := map[int]*coordinator{}
	for _, f := range []int{1, 2} {
		coords[f] = &coordinator{sys: &System{spec: Spec{F: f}}}
	}
	p := &pending{}
	var fastN, slowN, openN, emptyFast, f2Fast, f2Slow, acceptsDone int
	for seed := int64(0); seed < 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := 1 + rng.Intn(2)
		n := 2*f + 1
		shards := rng.Perm(5)[:1+rng.Intn(3)]
		var pieces []txn.Piece
		for _, s := range shards {
			pieces = append(pieces, txn.IncrementPiece(fmt.Sprint("k", s)).On(s))
		}
		tx := &txn.Txn{Pieces: txn.ByShard(pieces...)}
		fast := rng.Intn(8) != 0
		// Each shard's replicas mostly agree on one list; some deviate.
		type reply struct {
			shard, rep int
			deps       []uint64
		}
		var replies []reply
		deviate := rng.Float64() * 0.6
		for _, s := range shards {
			common := lists[rng.Intn(len(lists))]
			for r := 0; r < n; r++ {
				deps := common
				if rng.Float64() < deviate {
					deps = lists[rng.Intn(len(lists))]
				}
				if rng.Intn(10) != 0 { // a tenth never arrive
					replies = append(replies, reply{s, r, deps})
				}
			}
		}
		for i := rng.Intn(3); i > 0 && len(replies) > 0; i-- {
			dup := replies[rng.Intn(len(replies))]
			if rng.Intn(2) == 0 {
				dup.deps = lists[rng.Intn(len(lists))]
			}
			replies = append(replies, dup)
		}
		rng.Shuffle(len(replies), func(i, j int) { replies[i], replies[j] = replies[j], replies[i] })

		co := coords[f]
		p.reset(tx, nil, n, fast)
		ref := newRefPending(tx, fast)
		decided := false
		for i, r := range replies {
			got := co.tallyPreaccept(p, r.shard, r.rep, r.deps)
			want := ref.preaccept(f, refVote{Shard: r.shard, Replica: r.rep, Deps: r.deps})
			if got != want || p.fastPath != ref.fastPath {
				t.Fatalf("seed %d, reply %d of %d (shard %d replica %d, %v): decided %v fast %v, reference %v %v",
					seed, i+1, len(replies), r.shard, r.rep, r.deps, got, p.fastPath, want, ref.fastPath)
			}
			if got {
				decided = true
				break
			}
		}
		if !decided {
			openN++
			continue
		}
		if !slices.Equal(p.deps, ref.deps) {
			t.Fatalf("seed %d: deps %v, reference %v", seed, p.deps, ref.deps)
		}
		if p.fastPath {
			fastN++
			if len(p.deps) == 0 {
				emptyFast++
			}
			if f == 2 {
				f2Fast++
			}
			continue
		}
		slowN++
		if f == 2 {
			f2Slow++
		}
		// The accept round: acks in any order, duplicated, some lost.
		var acks [][2]int
		for _, s := range shards {
			for r := 0; r < n; r++ {
				for k := rng.Intn(3); k > 0; k-- {
					acks = append(acks, [2]int{s, r})
				}
			}
		}
		rng.Shuffle(len(acks), func(i, j int) { acks[i], acks[j] = acks[j], acks[i] })
		for i, a := range acks {
			got, want := co.tallyAccept(p, a[0], a[1]), ref.accept(f, a[0], a[1])
			if got != want {
				t.Fatalf("seed %d, accept %d of %d (shard %d replica %d): decided %v, reference %v", seed, i+1, len(acks), a[0], a[1], got, want)
			}
			if got {
				acceptsDone++
				break
			}
		}
	}
	t.Logf("fast %d (empty deps %d, F=2 %d), slow %d (F=2 %d, accepted %d), undecided %d",
		fastN, emptyFast, f2Fast, slowN, f2Slow, acceptsDone, openN)
	for name, c := range map[string]int{"fast": fastN, "fast on empty deps": emptyFast, "fast at F=2": f2Fast,
		"slow": slowN, "slow at F=2": f2Slow, "accepted": acceptsDone, "undecided": openN} {
		if c == 0 {
			t.Errorf("no sequence ended %s", name)
		}
	}
}

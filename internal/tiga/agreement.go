package tiga

import (
	"slices"

	"tiga/internal/simnet"
	"tiga/internal/txn"
)

// This file implements §3.5, timestamp agreement among the leaders of a
// multi-shard transaction: the round-1 and round-2 notifications, Cases 1–3
// (Case-3 revokes an optimistic execution and repositions the record), and the
// re-broadcast of agreements that stalled on a lost notification. The mode
// (§3.8) decides whether agreement runs before execution (preventive) or after
// it (detective).

// agreement is the §3.5 timestamp-agreement state of one multi-shard
// transaction on a leader. It exists from the first round-1 timestamp the
// leader learns — its own, or another leader's notification, which may arrive
// before the transaction's body (the record is then a placeholder) — until
// agreement finishes; records that never agree, or have agreed, carry none.
// Live objects sit in Server.agreements, which is what resendAgreements walks.
type agreement struct {
	r     *rec
	round int
	// round1/round2 hold, per shard, the timestamp that shard's leader
	// announced in that round.
	round1, round2 tsSet
	slot           int // index in Server.agreements
}

// shardTS is one shard leader's announced timestamp in an agreement round.
type shardTS struct {
	shard int
	ts    txn.Timestamp
}

// tsSet is a small shard -> timestamp map backed by an inline array: the
// agreement state of a transaction spans its involved shards (2–4 in every
// workload here), so a linear scan beats hashing and — crucially for the
// per-transaction allocation budget — the zero value is ready to use and
// single-shard transactions and followers never populate it at all, where
// the map form cost two eager allocations per rec on every replica. Entries
// alias the inline buffer, so an agreement must not be copied once populated
// (agreements travel by pointer only).
type tsSet struct {
	items []shardTS
	buf   [4]shardTS
}

func (s *tsSet) set(shard int, ts txn.Timestamp) {
	for i := range s.items {
		if s.items[i].shard == shard {
			s.items[i].ts = ts
			return
		}
	}
	if s.items == nil {
		s.items = s.buf[:0]
	}
	s.items = append(s.items, shardTS{shard: shard, ts: ts})
}

// get returns the zero timestamp for an absent shard, like a map lookup.
func (s *tsSet) get(shard int) txn.Timestamp {
	for i := range s.items {
		if s.items[i].shard == shard {
			return s.items[i].ts
		}
	}
	return txn.Timestamp{}
}

func (s *tsSet) len() int { return len(s.items) }

// ---- §3.5 timestamp agreement ----

// agree returns r's agreement state, starting it if r has none.
func (s *Server) agree(r *rec) *agreement {
	if r.ag == nil {
		a := s.cluster.agreements.Get()
		*a = agreement{r: r, slot: len(s.agreements)}
		s.agreements = append(s.agreements, a)
		r.ag = a
	}
	return r.ag
}

// startAgreement announces r's timestamp to the other leaders in round 1,
// unless r's agreement has already begun (a Case-3 re-execution).
func (s *Server) startAgreement(r *rec) {
	if a := s.agree(r); a.round == 0 {
		a.round = 1
		a.round1.set(s.shard, r.ts)
		s.broadcastNotification(r, 1, r.ts)
	}
}

// agreedOn marks r's agreement finished and recycles its state: nothing reads
// the rounds of an agreed record.
func (s *Server) agreedOn(r *rec) {
	r.agreed = true
	a, last := r.ag, len(s.agreements)-1
	s.agreements[a.slot] = s.agreements[last]
	s.agreements[a.slot].slot = a.slot
	s.agreements[last] = nil
	s.agreements = s.agreements[:last]
	r.ag = nil
	s.recycle(a)
}

// recycle hands a back to the cluster's pool. It lets go of the record first:
// a pooled agreement still pointing into a record slab would keep a whole chunk
// of it alive after installLog has dropped the slab.
func (s *Server) recycle(a *agreement) {
	a.r = nil
	s.cluster.agreements.Put(a)
}

func (s *Server) broadcastNotification(r *rec, round int, ts txn.Timestamp) {
	for i := range r.t.Pieces {
		sh := r.t.Pieces[i].Shard()
		if sh == s.shard {
			continue
		}
		m := s.cluster.msgs.tsNote.Get()
		*m = tsNotification{viewInfo: s.views(), Shard: s.shard, ID: r.id, TS: ts, Round: round}
		s.node.Send(s.leaderOf(sh), m)
	}
}

func (s *Server) onTsNotification(from simnet.NodeID, m *tsNotification) {
	if s.status != statusNormal || m.GView != s.view.GView || !s.IsLeader() {
		return
	}
	if m.LView != s.view.GVec[m.Shard] {
		return // not from the current leader of that shard
	}
	r := s.recs[m.ID]
	if r == nil {
		if s.late(m.ID) {
			return
		}
		// Notification before the coordinator's multicast arrived (or the
		// coordinator failed mid-multicast, Appendix B): remember the
		// timestamps and fetch the body if it never shows up.
		r = s.newRec(m.ID)
		s.scheduleFetch(r, from)
	}
	if r.agreed || r.released {
		// A late notification: agreement is over (a released record that never
		// agreed was installed from a recovered log), so it changes nothing.
		return
	}
	switch m.Round {
	case 1:
		s.agree(r).round1.set(m.Shard, m.TS)
	case 2:
		s.agree(r).round2.set(m.Shard, m.TS)
	}
	s.checkAgreement(r)
}

// checkAgreement evaluates Cases 1–3 of §3.5 once all round-1 timestamps are
// known.
func (s *Server) checkAgreement(r *rec) {
	if r.t == nil || r.agreed {
		return
	}
	if s.view.GMode == ModePreventive {
		if !r.proposed {
			return
		}
	} else if !r.executed {
		return
	}
	nShards := len(r.t.Pieces)
	a := r.ag
	if a == nil || a.round1.len() < nShards {
		return
	}
	agreed := a.round1.get(s.shard)
	mismatch := false
	for _, e := range a.round1.items {
		if agreed.Less(e.ts) {
			agreed = e.ts
		}
	}
	for _, e := range a.round1.items {
		if !e.ts.Equal(agreed) {
			mismatch = true
			break
		}
	}
	if !mismatch {
		// Case-1: all timestamps match — agreement completes in 0.5 WRTT.
		s.agreedOn(r)
		s.finishAgreement(r)
		return
	}
	if a.round < 2 {
		a.round = 2
		a.round2.set(s.shard, agreed)
		s.broadcastNotification(r, 2, agreed)
		if r.ts.Less(agreed) {
			// Case-3: our optimistic execution (if any) used a stale
			// timestamp — revoke and reposition (§3.5).
			s.revoke(r)
			s.reposition(r, agreed)
			s.schedulePump(agreed.Time)
		}
		// Case-2 (r.ts == agreed): execution stays valid but we must not
		// release until round 2 confirms every leader adopted the timestamp
		// — otherwise timestamp inversion (§3.6, Fig 5).
	}
	if a.round2.len() >= nShards {
		s.agreedOn(r)
		s.finishAgreement(r)
	}
}

// finishAgreement releases the transaction if it is already (re-)executed;
// otherwise pump will execute and release it when it reaches the head again.
func (s *Server) finishAgreement(r *rec) {
	s.keys.unpark(r)
	if r.executed && !r.released {
		s.releaseAgreed(r)
	}
	// Unblock conflicting successors (and, in the preventive mode or
	// Case-3, execute r itself once it is expired and unblocked).
	s.pump()
	if !r.executed {
		s.schedulePump(r.ts.Time)
	}
}

// resendAgreements re-broadcasts notifications for stalled agreements
// (message loss tolerance).
func (s *Server) resendAgreements() {
	if s.status != statusNormal || !s.IsLeader() {
		return
	}
	// Broadcast in a deterministic ID order — rebroadcast sends feed the
	// simulation's event order. Only unfinished agreements have state to walk.
	slices.SortFunc(s.agreements, func(a, b *agreement) int { return compareIDs(a.r.id, b.r.id) })
	for i, a := range s.agreements {
		a.slot = i
	}
	for _, a := range s.agreements {
		r := a.r
		if r.t == nil {
			continue // a placeholder: notified of, body not here yet
		}
		switch a.round {
		case 1:
			s.broadcastNotification(r, 1, a.round1.get(s.shard))
		case 2:
			s.broadcastNotification(r, 2, a.round2.get(s.shard))
		}
	}
}

// Package paxos implements the steady-state of Multi-Paxos: a stable leader
// replicates commands to 2f+1 replicas and commits them after f
// acknowledgements (one WAN round trip when replicas are geo-distributed).
// It is the consensus layer underneath the layered baselines (2PL+Paxos,
// OCC+Paxos, NCC+), exactly the "stacked" design whose extra WRTTs Tiga's
// consolidation removes (§1, §2).
//
// Leader election is out of scope here: the leader is fixed at construction.
// What IS supported is rebooting any member, the leader included: a replica
// built to replace a crashed one calls Rejoin, which rebuilds its log from
// f+1 surviving members and resumes. That powers the baseline recovery
// experiments (the Fig 11 analogues for 2PL+Paxos and NCC+).
//
// Messages are pooled (see pool.Free for the lifecycle rules): the sender
// draws one per destination from its own freelist, the message carries its
// sender and so the list it came from, and the receiving Handle copies the
// fields out and puts it back before it acts on them. A message the network
// drops is simply never put back. The replicated Command is retained by every
// log, so it is never pooled; nor are the snapshot messages of a rejoin, one
// exchange per reboot.
package paxos

import (
	"math/bits"
	"time"

	"tiga/internal/pool"
	"tiga/internal/simnet"
)

// Command is an opaque replicated command.
type Command any

// accept is the leader's phase-2a message.
type accept struct {
	src      *Replica // the sender: its group's tag and the list the message goes back to
	Slot     int
	CommitTo int
	Cmd      Command
}

// ack is the phase-2b acknowledgement.
type ack struct {
	src  *Replica // the replica that holds Slot
	Slot int
}

// commit propagates the commit point to followers.
type commit struct {
	src      *Replica
	CommitTo int
}

// snapReq asks a member for a copy of its log, on behalf of a rejoining
// member of the same group; snapRep answers.
type snapReq struct{ Tag string }

type snapRep struct {
	Tag      string
	Member   int
	Log      []Command
	CommitTo int
}

// rejoinRetry is how often a rejoining replica asks again the members that
// have not answered: a request dropped at a crashed or partitioned survivor
// must delay the rejoin, not wedge it.
const rejoinRetry = 500 * time.Millisecond

// Replica is one member of a replication group. The owning protocol server
// must forward messages to Handle; Paxos traffic shares the server's node.
type Replica struct {
	Tag    string // distinguishes multiple groups sharing nodes
	node   *simnet.Node
	peers  []simnet.NodeID // all members, index = replica id
	me     int
	leader int
	f      int

	// log is kept for the whole run, so it lives in slab chunks that never
	// move: a slice grown by append would copy all of it at each growth.
	log      pool.Slab[Command]
	commitTo int
	applied  int
	applying bool // apply is running (see apply)

	// holders is the leader's ack window, a ring indexed by slot modulo its
	// power-of-two length: for each slot in [commitTo, proposedTo), bit i is
	// set once replica i holds the slot. A slot leaves the window as commitTo
	// passes it, so nothing per slot outlives its commit.
	holders    []uint64
	proposedTo int

	// snaps holds a rejoining replica's answers by member, and rejoined runs
	// once they are installed. snaps is nil when the replica is not
	// rejoining.
	snaps    []*snapRep
	rejoined func()

	accepts *pool.Free[accept]
	acks    *pool.Free[ack]
	commits *pool.Free[commit]

	// OnCommit fires in slot order on every replica once a slot commits.
	OnCommit func(slot int, cmd Command)
}

// NewReplica creates a group member. peers[leader] is the stable leader.
func NewReplica(tag string, node *simnet.Node, peers []simnet.NodeID, me, leader, f int) *Replica {
	if len(peers) > 64 {
		panic("paxos: an ack set is one 64-bit mask; a group has at most 64 members")
	}
	return &Replica{Tag: tag, node: node, peers: peers, me: me, leader: leader, f: f,
		accepts: pool.New[accept](), acks: pool.New[ack](), commits: pool.New[commit]()}
}

// IsLeader reports whether this replica is the group leader.
func (r *Replica) IsLeader() bool { return r.me == r.leader }

// Propose replicates cmd (leader only) and returns its slot. Each proposal
// also retransmits the oldest uncommitted slots, so lost accepts/acks are
// recovered as long as traffic keeps flowing (call Tick during idle periods).
func (r *Replica) Propose(cmd Command) int {
	slot := int(r.log.Append(cmd))
	r.await(slot)
	for i, p := range r.peers {
		if i != r.me {
			r.sendAccept(p, slot)
		}
	}
	r.retransmit(4)
	r.maybeCommit(slot)
	return slot
}

// Tick retransmits stalled slots; owners should call it periodically when
// running over lossy links.
func (r *Replica) Tick() {
	if r.IsLeader() {
		r.retransmit(16)
		r.maybeCommit(r.commitTo)
	}
}

func (r *Replica) retransmit(max int) {
	for s := r.commitTo; s < r.log.Len() && s < r.commitTo+max; s++ {
		if s == r.log.Len()-1 {
			break // just sent
		}
		held := r.held(s)
		for i, p := range r.peers {
			if i != r.me && held&(1<<i) == 0 {
				r.sendAccept(p, s)
			}
		}
	}
}

// await opens the ack set of the newest slot (on the leader, proposedTo),
// held by this replica alone, doubling the ring when the uncommitted slots
// fill it.
func (r *Replica) await(slot int) {
	if slot-r.commitTo >= len(r.holders) {
		size := max(16, 2*len(r.holders))
		grown := make([]uint64, size)
		for s := r.commitTo; s < r.proposedTo; s++ {
			grown[s&(size-1)] = r.holders[s&(len(r.holders)-1)]
		}
		r.holders = grown
	}
	r.holders[slot&(len(r.holders)-1)] = 1 << r.me
	r.proposedTo = slot + 1
}

// held returns slot's ack set, or 0 for a slot outside the window: committed,
// or never proposed by this replica.
func (r *Replica) held(slot int) uint64 {
	if slot < r.commitTo || slot >= r.proposedTo {
		return 0
	}
	return r.holders[slot&(len(r.holders)-1)]
}

func (r *Replica) sendAccept(to simnet.NodeID, slot int) {
	m := r.accepts.Get()
	*m = accept{src: r, Slot: slot, CommitTo: r.commitTo, Cmd: *r.log.At(uint32(slot))}
	r.node.Send(to, m)
}

func (r *Replica) broadcastCommit() {
	for i, p := range r.peers {
		if i != r.me {
			m := r.commits.Get()
			*m = commit{src: r, CommitTo: r.commitTo}
			r.node.Send(p, m)
		}
	}
}

// Handle processes a message if it belongs to this group, reporting whether
// it was consumed. A rejoining replica answers snapshot requests but consumes
// no accept, ack or commit: the owner drops them.
func (r *Replica) Handle(from simnet.NodeID, msg simnet.Message) bool {
	switch m := msg.(type) {
	case *accept:
		if m.src.Tag != r.Tag || r.Rejoining() {
			return false
		}
		slot, to, cmd := m.Slot, m.CommitTo, m.Cmd
		m.src.accepts.Put(m)
		for r.log.Len() <= slot {
			r.log.Add()
		}
		*r.log.At(uint32(slot)) = cmd
		r.advanceCommit(to)
		a := r.acks.Get()
		*a = ack{src: r, Slot: slot}
		r.node.Send(from, a)
		return true
	case *ack:
		if m.src.Tag != r.Tag || r.Rejoining() {
			return false
		}
		slot, by := m.Slot, m.src.me
		m.src.acks.Put(m)
		if held := r.held(slot); held != 0 {
			r.holders[slot&(len(r.holders)-1)] = held | 1<<by
			r.maybeCommit(slot)
		}
		return true
	case *commit:
		if m.src.Tag != r.Tag || r.Rejoining() {
			return false
		}
		to := m.CommitTo
		m.src.commits.Put(m)
		r.advanceCommit(to)
		return true
	case *snapReq:
		if m.Tag != r.Tag {
			return false
		}
		n := r.log.Len()
		log := r.log.AppendTo(make([]Command, 0, n), 0, uint32(n))
		r.node.Send(from, &snapRep{Tag: r.Tag, Member: r.me, Log: log, CommitTo: r.commitTo})
		return true
	case *snapRep:
		if m.Tag != r.Tag {
			return false
		}
		r.onSnapshot(m)
		return true
	}
	return false
}

func (r *Replica) maybeCommit(slot int) {
	if !r.IsLeader() || slot != r.commitTo {
		return
	}
	for r.commitTo < r.log.Len() && bits.OnesCount64(r.held(r.commitTo)) >= r.f+1 {
		r.commitTo++
	}
	r.apply()
	if r.commitTo > 0 {
		r.broadcastCommit()
	}
}

func (r *Replica) advanceCommit(to int) {
	if to > r.commitTo {
		r.commitTo = to
		r.apply()
	}
}

// apply runs OnCommit over the committed slots not yet applied. It does not
// re-enter: an OnCommit that proposes, or whose proposal commits, leaves the
// new slots to the loop already running, so each slot is applied once, in
// order, and Applied() inside OnCommit is the slot being applied.
func (r *Replica) apply() {
	if r.applying {
		return
	}
	r.applying = true
	defer func() { r.applying = false }()
	for r.applied < r.commitTo && r.applied < r.log.Len() {
		cmd := *r.log.At(uint32(r.applied))
		if cmd == nil {
			return // gap: wait for retransmission via later accepts
		}
		if r.OnCommit != nil {
			r.OnCommit(r.applied, cmd)
		}
		r.applied++
	}
}

// Committed returns the number of committed slots (tests).
func (r *Replica) Committed() int { return r.commitTo }

// Applied returns the number of slots applied to the state machine — at most
// Committed, lagging it across log gaps awaiting retransmission. Safe-time
// watermark adoption keys off this: a watermark published for a log prefix
// only becomes valid here once that prefix has actually reached the store.
func (r *Replica) Applied() int { return r.applied }

// LogLen returns the log length, committed or not (recovery catch-up gate).
func (r *Replica) LogLen() int { return r.log.Len() }

// Rejoin rebuilds the log of a replica built to replace a crashed member,
// then calls done (if non-nil). It asks every other member for its log, and
// again every rejoinRetry those that have not answered. Once f+1 have, it
// merges them: each slot from the first member, in member order, that holds
// it, and the largest commit point. A slot committed before the crash is held
// by f+1 members, so at least f of the 2f others hold it and any f+1 answers
// include one of them. Until then the replica consumes no accept, ack or
// commit (Handle), and its owner should serve nothing (Rejoining).
func (r *Replica) Rejoin(done func()) {
	r.snaps, r.rejoined = make([]*snapRep, len(r.peers)), done
	r.askSnapshots()
	r.node.Every(rejoinRetry, func() bool {
		if !r.Rejoining() {
			return false
		}
		r.askSnapshots()
		return true
	})
}

// Rejoining reports whether Rejoin is still waiting for answers.
func (r *Replica) Rejoining() bool { return r.snaps != nil }

func (r *Replica) askSnapshots() {
	for i, p := range r.peers {
		if i != r.me && r.snaps[i] == nil {
			r.node.Send(p, &snapReq{Tag: r.Tag})
		}
	}
}

// onSnapshot records one member's answer (a repeated answer replaces the
// earlier one) and installs the merge once f+1 members have answered.
func (r *Replica) onSnapshot(m *snapRep) {
	if !r.Rejoining() {
		return
	}
	r.snaps[m.Member] = m
	answered := 0
	for _, rep := range r.snaps {
		if rep != nil {
			answered++
		}
	}
	if answered < r.f+1 {
		return
	}
	var log []Command
	commitTo := 0
	for _, rep := range r.snaps {
		if rep == nil {
			continue
		}
		commitTo = max(commitTo, rep.CommitTo)
		for i, c := range rep.Log {
			if i >= len(log) {
				log = append(log, c)
			} else if log[i] == nil {
				log[i] = c
			}
		}
	}
	done := r.rejoined
	r.snaps, r.rejoined = nil, nil
	r.installLog(log, commitTo)
	if done != nil {
		done()
	}
}

// installLog adopts a log merged from surviving members: the committed
// prefix is applied locally (OnCommit replay). The tail is truncated at the
// first gap — commit order is sequential, so a slot missing from every
// survivor cannot have committed and neither can anything after it. A leader
// also pushes the commit point to the followers and re-proposes the adopted
// uncommitted tail under fresh acks; a follower only adopts it.
func (r *Replica) installLog(log []Command, commitTo int) {
	commitTo = min(commitTo, len(log)) // defensive: a commit point past every survivor's log
	for s := commitTo; s < len(log); s++ {
		if log[s] == nil {
			log = log[:s]
			break
		}
	}
	r.log = pool.Slab[Command]{}
	for _, c := range log {
		r.log.Append(c)
	}
	r.commitTo = commitTo
	r.proposedTo = commitTo
	r.applied = 0
	r.apply()
	if !r.IsLeader() {
		return
	}
	r.broadcastCommit()
	for s := r.commitTo; s < r.log.Len(); s++ {
		r.await(s)
		for i, p := range r.peers {
			if i != r.me {
				r.sendAccept(p, s)
			}
		}
	}
}

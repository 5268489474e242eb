// Package tiga implements the Tiga protocol (SOSP 2025): a consolidated
// concurrency-control + consensus protocol that commits strictly-serializable
// geo-distributed transactions in one wide-area round trip by proactively
// ordering them with synchronized clocks.
//
// The package follows the paper's structure, one file per mechanism:
//
//   - coordinator.go (§3.1, §3.4, Alg. 3): measures one-way delays, assigns
//     each transaction a future timestamp, multicasts it, and runs the
//     fast/slow quorum checks.
//   - server.go (§3.2–§3.3, Alg. 1/2): admits transactions into a timestamp-
//     ordered priority queue, releases them when the local clock passes their
//     timestamps, executes optimistically at leaders, and fast-replies;
//     conflict.go is the conflict table of §3.2's detection.
//   - agreement.go (§3.5, §3.8): inter-leader timestamp agreement, before
//     execution (preventive) or after it (detective).
//   - replication.go (§3.7, Appendix E): log synchronization to followers, slow
//     replies, the commit point and the checkpoint.
//   - recovery.go (§4, Appendix B): global view changes (Alg. 5), rejoin
//     (Alg. 6), and fetching a body a failed coordinator did not deliver.
//   - viewmgr.go (§4, Alg. 4): the view manager detects failures, elects
//     co-located leaders, and starts view changes.
//   - snapreads.go: local snapshot reads and the safe-time watermarks behind
//     them.
//   - config.go holds the configuration and the wire messages, cluster.go the
//     deployment, and register.go the protocol registration.
package tiga

import (
	"time"

	"tiga/internal/hashlog"
	"tiga/internal/pool"
	"tiga/internal/simnet"
	"tiga/internal/snapread"
	"tiga/internal/txn"
)

// Mode selects when leaders run timestamp agreement relative to execution
// (§3.8).
type Mode int

// Agreement scheduling modes.
const (
	// ModeAuto lets the view manager pick: preventive when leaders can be
	// co-located (inter-leader OWD under the threshold), detective otherwise.
	ModeAuto Mode = iota
	// ModeDetective executes optimistically before agreement and revokes on
	// mismatch (Fig 3) — used when leaders are separated across regions.
	ModeDetective
	// ModePreventive agrees on the timestamp before executing (Fig 6) — the
	// default when all leaders share a region, eliminating rollback.
	ModePreventive
)

func (m Mode) String() string {
	switch m {
	case ModeDetective:
		return "detective"
	case ModePreventive:
		return "preventive"
	}
	return "auto"
}

// Failure detection (§4): every server heartbeats the view manager, which
// checks its leaders as often and suspects one it has not heard from in
// heartbeatTimeout.
const (
	heartbeatEvery   = 300 * time.Millisecond
	heartbeatTimeout = 1200 * time.Millisecond
)

// Config parameterizes a Tiga deployment.
type Config struct {
	Shards int // m
	F      int // tolerated failures per shard; 2f+1 replicas
	Mode   Mode
	// Delta is the headroom safety margin added on top of the measured
	// super-quorum OWD (Δ = 10 ms in the paper, §3.1).
	Delta time.Duration
	// HeadroomDelta is the experiment knob from §5.6 (Fig 13): an offset
	// added to the estimated headroom, possibly negative.
	HeadroomDelta time.Duration
	// ZeroHeadroom reproduces the 0-Hdrm baseline of Fig 13: the sending
	// time is used directly as the timestamp.
	ZeroHeadroom bool
	// EpsilonBound, when positive, enables the coordination-free mode
	// sketched in §6: leaders skip inter-leader timestamp agreement and
	// instead hold each transaction until their clock passes T.t + ε.
	EpsilonBound time.Duration
	// ColocationThreshold is the maximum inter-leader OWD for which the view
	// manager still chooses the preventive mode (10 ms in the paper, §3.8).
	ColocationThreshold time.Duration
	// ExecCost is the CPU time charged per piece execution.
	ExecCost time.Duration
	// PQCost is the CPU time charged per priority-queue operation.
	PQCost time.Duration
	// RetryTimeout is how long a coordinator waits before re-submitting.
	RetryTimeout time.Duration
	// SyncPointEvery is how often followers report sync-points to leaders.
	SyncPointEvery time.Duration
	// BatchSlowReplies enables the Appendix E optimization: followers answer
	// periodic coordinator inquiries instead of pushing per-entry replies.
	BatchSlowReplies bool
	// CheckpointEvery advances the checkpoint position every N committed
	// entries (§4); 0 disables checkpoints. Recovery charges simulated replay
	// time only for the log entries past the checkpoint. The checkpoint's
	// store image is not kept: it is rebuilt from the seed and the log prefix
	// when a recovery uses it.
	CheckpointEvery int
	// LocalReads enables the local snapshot-read path: servers retain
	// committed version history, maintain monotonic safe-time watermarks
	// (leaders from their synchronized clocks, followers from leader
	// broadcasts over applied log prefixes), and serve read-only
	// transactions from the nearest replica at 0 WRTT. Default off: the
	// machinery adds messages and timers, so golden runs stay byte-
	// identical without it.
	LocalReads bool
	// ReadStaleness is how far in the past local read-only transactions
	// pick their snapshot. 0 gives strong (freshest-possible) reads that
	// block for the SAFETIME delay whenever the serving replica's
	// watermark lags the coordinator's clock; a positive bound trades
	// staleness for near-zero waits.
	ReadStaleness time.Duration
	// VersionGC prunes old committed version history: the leader's safe-time
	// tick computes a GC horizon from the minimum replica watermark minus
	// ReadStaleness (and a fixed retention slack) and piggybacks it on the
	// existing safe-time broadcast; a read re-driven until the horizon has
	// passed its snapshot is answered "pruned" and restarted
	// (internal/snapread). Only meaningful with LocalReads (the default mode
	// already garbage-collects at commit time).
	VersionGC bool
	// AdmitCap bounds a coordinator's admitted in-flight transactions;
	// <= 0 disables admission control (default). Under open-loop arrival
	// this is the backpressure that turns overload into bounded-latency
	// shedding instead of congestion collapse.
	AdmitCap int
	// AdmitQueue bounds the admission wait queue once AdmitCap is reached.
	AdmitQueue int
}

// DefaultConfig returns the configuration used throughout the evaluation.
func DefaultConfig(shards, f int) Config {
	return Config{
		Shards:              shards,
		F:                   f,
		Mode:                ModeAuto,
		Delta:               10 * time.Millisecond,
		ColocationThreshold: 10 * time.Millisecond,
		ExecCost:            1200 * time.Nanosecond,
		PQCost:              300 * time.Nanosecond,
		RetryTimeout:        1200 * time.Millisecond,
		SyncPointEvery:      5 * time.Millisecond,
		CheckpointEvery:     2000,
	}
}

// Replicas returns the replication degree 2f+1.
func (c Config) Replicas() int { return 2*c.F + 1 }

// SuperQuorum returns the fast-path quorum size 1+f+⌈f/2⌉ (§3.4).
func (c Config) SuperQuorum() int { return 1 + c.F + (c.F+1)/2 }

// ---- Wire messages ----
// All messages carry view identifiers; receivers reject mismatching views
// (Appendix A).
//
// The per-transaction messages (txnMsg, fastReply, slowReply, tsNotification,
// logSyncMsg) and the per-tick ones (syncPointMsg, safeTimeMsg) travel as
// pooled pointers drawn from the cluster's freelists below; the low-rate
// view-change, probe, and fetch messages stay plain values. Lifecycle
// discipline for pooled messages:
//
//   - the sender Gets a fresh object per destination — one object is never
//     shared across Sends, so a multicast is N pooled copies;
//   - the receiver's handle() recycles the object after its handler returns,
//     which requires handlers to copy (never alias) anything they retain —
//     pendingSync, the buffered watermark pairs, and the coordinator reply
//     arrays all store struct copies, while pointers reaching THROUGH a message (*txn.Txn,
//     result bytes) are not pool-owned and may be kept;
//   - messages dropped in flight (loss, partitions, crashes) simply leak from
//     the freelist and are re-allocated on demand.
//
// All Gets and Puts happen on one simulation's event loop, so recycling order
// is deterministic and runs stay byte-identical across -workers settings.

// msgPools holds one cluster's wire-message freelists (see pool.Free for the
// determinism rationale; pool.Check arms double-free detection in tests).
type msgPools struct {
	txn      *pool.Free[txnMsg]
	fastRep  *pool.Free[fastReply]
	slowRep  *pool.Free[slowReply]
	tsNote   *pool.Free[tsNotification]
	logSync  *pool.Free[logSyncMsg]
	syncPt   *pool.Free[syncPointMsg]
	safeTime *pool.Free[safeTimeMsg]
	reads    *snapread.Msgs // the local-read path's Req and Rep
}

func newMsgPools() *msgPools {
	return &msgPools{
		txn:      pool.New[txnMsg](),
		fastRep:  pool.New[fastReply](),
		slowRep:  pool.New[slowReply](),
		tsNote:   pool.New[tsNotification](),
		logSync:  pool.New[logSyncMsg](),
		syncPt:   pool.New[syncPointMsg](),
		safeTime: pool.New[safeTimeMsg](),
		reads:    snapread.NewMsgs(),
	}
}

type viewInfo struct {
	GView int
	LView int
}

// globalView is the view manager's <g-view, g-vec, g-mode> (§4): the global
// view number, each shard's local view — whose leader is replica lview mod
// 2f+1 — and the agreement mode. Servers, coordinators and view-manager
// replicas hold one, and the view-change messages carry one. A view travels as
// a copy: whoever sends or adopts a view takes it through copy, so no two
// holders share a g-vec.
type globalView struct {
	GView int
	GVec  []int
	GMode Mode
}

// copy returns v with a g-vec of its own.
func (v globalView) copy() globalView {
	v.GVec = append([]int(nil), v.GVec...)
	return v
}

// txnMsg is the coordinator's multicast (step 1, Fig 3).
type txnMsg struct {
	T         *txn.Txn
	TS        txn.Timestamp
	SendClock time.Duration // coordinator clock at send, for OWD sampling
	Coord     simnet.NodeID
	GView     int
	Retry     int
	// Done is the coordinator's done watermark: every sequence number of its
	// own below Done has finished or was never a pending transaction (a local
	// read's). A server that has retired a record learns from it that nobody
	// will ask for that transaction again (Server.retire).
	Done uint64
}

// fastReply is a server's fast-path reply (§3.4).
type fastReply struct {
	viewInfo
	Shard    int
	Replica  int
	ID       txn.ID
	TS       txn.Timestamp
	Hash     hashlog.Hash
	Ret      []byte // execution result; nil from followers
	IsLeader bool
	LogPos   int           // leader only: the log position of the release, -1 before it (Appendix E)
	OWD      time.Duration // measured arrival delay sample for the estimator

	// Span stamps (internal/trace): the server-side lifecycle of this
	// attempt in sim time, carried on the reply so the coordinator can
	// reconstruct the decisive chain at finish without any tracker-side
	// state. ArriveS = txnMsg arrival, EligS = future-timestamp expiry
	// (became eligible for release), RelS = priority-queue release, DoneS =
	// execution departure. RecvS is stamped by the coordinator when the
	// reply arrives. All zero on untraced runs.
	ArriveS, EligS, RelS, DoneS, RecvS time.Duration
}

// slowReply notifies the coordinator a follower synced the entry (§3.7).
type slowReply struct {
	viewInfo
	Shard   int
	Replica int
	ID      txn.ID
	TS      txn.Timestamp
	// RecvS is the coordinator-side arrival stamp (see fastReply).
	RecvS time.Duration
}

// tsNotification is the inter-leader timestamp agreement message (§3.5).
type tsNotification struct {
	viewInfo
	Shard int // sender's shard
	ID    txn.ID
	TS    txn.Timestamp
	Round int // 1 or 2
}

// logSyncMsg replicates a log entry from leader to followers (§3.7).
type logSyncMsg struct {
	viewInfo
	Shard       int
	Pos         int
	ID          txn.ID
	TS          txn.Timestamp
	T           *txn.Txn
	CommitPoint int
}

// syncPointMsg is a follower's periodic sync-point report. W piggybacks the
// follower's adopted safe-time watermark (zero when local reads are off) so
// the leader can compute the version-GC horizon without extra messages.
type syncPointMsg struct {
	viewInfo
	Shard     int
	Replica   int
	SyncPoint int
	W         time.Duration
}

// safeTimeMsg is the leader's periodic safe-time broadcast for the local
// snapshot-read path (sent only when Config.LocalReads is on): watermark W
// is valid for the log prefix [0, N) — a follower adopts W once it has
// applied N entries, because every transaction that commits with timestamp
// <= W is contained in that prefix (admission keeps later arrivals above
// the published watermark). CP piggybacks the leader's commit-point so
// followers can apply without waiting for the next log-sync message.
// GC piggybacks the leader's version-GC horizon (zero unless
// Config.VersionGC): followers prune to it when they adopt the watermark, and
// from then on answer "pruned" to any read below it.
type safeTimeMsg struct {
	viewInfo
	Shard int
	W     time.Duration
	N     int
	CP    int
	GC    time.Duration
}

// slowInquiry / slowInquiryRep implement the Appendix E batched slow path:
// the coordinator periodically asks followers for their views + sync-points.
type slowInquiry struct {
	Coord simnet.NodeID
}

type slowInquiryRep struct {
	viewInfo
	Shard     int
	Replica   int
	SyncPoint int
}

// probeMsg / probeRep bootstrap the coordinator's OWD estimates (§3.1).
type probeMsg struct {
	SendClock time.Duration
	Coord     simnet.NodeID
}

type probeRep struct {
	Shard   int
	Replica int
	OWD     time.Duration
}

// ---- View change messages (§4, Appendix B) ----

type heartbeatMsg struct {
	Shard   int
	Replica int
}

type viewChangeReq struct{ globalView }

type viewChangeMsg struct {
	globalView
	LView     int
	Shard     int
	Replica   int
	LNV       int // last normal local view
	SyncPoint int
	Log       []logEntry
}

type tsVerification struct {
	GView int
	Shard int
	Info  []verifyEntry
}

type verifyEntry struct {
	ID txn.ID
	TS txn.Timestamp
	T  *txn.Txn
}

type startViewMsg struct {
	globalView
	LView int
	Shard int
	Log   []logEntry
}

type stateTransferReq struct {
	GView   int
	LView   int
	Shard   int
	Replica int
}

type stateTransferRep struct {
	GView     int
	LView     int
	Log       []logEntry
	SyncPoint int
}

// vmInquire / vmInfo let coordinators and rejoining servers fetch the view.
type vmInquire struct{ From simnet.NodeID }

type vmInfo struct{ globalView }

// VM-internal replication (Algorithm 4).
type cmPrepare struct {
	VView      int
	globalView // the prepared view
}

type cmPrepareReply struct {
	VView  int
	VRid   int
	PGView int
}

type cmCommit struct {
	VView int
	globalView
}

// fetchTxnReq asks another leader for a transaction body the coordinator
// failed to deliver here (Appendix B, coordinator failure).
type fetchTxnReq struct {
	Shard int
	ID    txn.ID
}

type fetchTxnRep struct {
	ID txn.ID
	T  *txn.Txn
	TS txn.Timestamp
}

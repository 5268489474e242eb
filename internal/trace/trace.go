// Package trace is the observability layer's span recorder: a
// seed-deterministic, zero-cost-when-disabled record of where each
// transaction's end-to-end latency went, phase by phase, shared across Tiga
// and the layered baselines so protocols decompose like for like.
//
// # Model
//
// A transaction's trace is a *T carrying an ordered list of Marks. Each mark
// (At, Phase) means "attribute the interval from the previous mark (or Start)
// up to At to Phase". Protocol code appends marks from two sources:
//
//   - live, as coordinator events happen (admission-queue exit, dispatch,
//     retry firings), and
//   - at finish, from server-side timestamps carried back inside reply
//     messages (arrival, headroom expiry, release, execution end, Paxos
//     commit) — the decisive reply of the final attempt reconstructs the
//     critical path with no tracker-side maps and no per-message state.
//
// All timestamps are simulator time (one global domain), so the chain needs
// no clock translation. The breakdown walk is clamped and monotone: a mark at
// or before the cursor contributes zero, a mark past End is truncated, and
// any unattributed tail goes to PhaseOther — so the per-bucket sums equal
// End-Start EXACTLY, by construction, for every trace (the property the
// harness exactness test pins).
//
// # Determinism and cost
//
// Tracing is enabled per run by handing the load driver a Config; the
// resulting Tracer is owned by that run's single-threaded simulation loop
// (like internal/pool freelists), so retained exemplars, phase accumulators,
// and the 1-in-N sample — selected by a hash of (seed, submission index),
// never by wall-clock or map order — are byte-identical across -workers.
// Disabled tracing is a nil *T on the transaction: every hook is a
// nil-receiver method call or a pointer test, with zero allocations on the
// disabled path (the PR 9 allocation gate covers it).
package trace

import (
	"time"
)

// Phase is the fine-grained lifecycle phase taxonomy. It is shared by every
// protocol: a phase a protocol does not have (Tiga never waits on locks, the
// layered baselines never wait out clock headroom) simply never appears.
type Phase uint8

const (
	// PhaseQueue is time spent in a coordinator admission queue before the
	// protocol started working on the transaction.
	PhaseQueue Phase = iota
	// PhaseDispatch is coordinator-side work between admission and the first
	// request leaving the node (timestamp minting, multicast fan-out).
	PhaseDispatch
	// PhaseFlight is network flight: request and reply propagation including
	// the simnet jitter draw and any CPU-queue departure delay.
	PhaseFlight
	// PhaseHeadroom is the server-side wait for the transaction's future
	// timestamp to pass the server's synchronized clock (Tiga §3.1).
	PhaseHeadroom
	// PhasePQ is priority-queue reorder delay: time between a transaction's
	// timestamp expiring and its actual release from the pq.
	PhasePQ
	// PhaseExec is piece execution on the server CPU.
	PhaseExec
	// PhaseLockWait is lock acquisition (2PL) or validation (OCC) time,
	// including execution under locks for the layered baselines.
	PhaseLockWait
	// PhaseRepl is replication: Tiga's slow-path wait for follower sync
	// points, or the layered baselines' Paxos commit-record round.
	PhaseRepl
	// PhaseDecision is coordinator-side quorum evaluation: the gap between
	// the decisive reply's arrival and the commit decision (normally zero —
	// the decision happens in the reply's own handler event).
	PhaseDecision
	// PhaseRetry is wasted attempts: everything between submission (or the
	// previous attempt) and a retry firing — timeout waits, abort backoff,
	// and the discarded attempt's own phases.
	PhaseRetry
	// PhaseSafeTime is the SAFETIME wait of a local snapshot read blocked
	// behind a lagging replica watermark.
	PhaseSafeTime
	// PhaseOther is the residual: any interval no mark claimed.
	PhaseOther

	// NumPhases is the taxonomy size.
	NumPhases = int(PhaseOther) + 1
)

var phaseNames = [NumPhases]string{
	"queue", "dispatch", "flight", "headroom", "pq", "exec",
	"lockwait", "repl", "decision", "retry", "safetime", "other",
}

// String returns the phase's stable lower-case name (golden output, Chrome
// export, CI validation all key on these).
func (p Phase) String() string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return "other"
}

// Bucket is the coarse reporting rollup of the phase taxonomy: the six
// columns of the breakdown tables.
type Bucket uint8

const (
	// BucketWRTT is network time (flight both ways, all attempts' sends).
	BucketWRTT Bucket = iota
	// BucketQueue is admission-queue wait.
	BucketQueue
	// BucketHeadroom is time waiting for a timestamp or watermark to pass:
	// clock headroom, pq reorder, and SAFETIME waits.
	BucketHeadroom
	// BucketLockVal is lock acquisition or validation work.
	BucketLockVal
	// BucketRepl is replication (Paxos rounds, slow-path sync waits).
	BucketRepl
	// BucketOther is everything else: dispatch, execution, decision gaps,
	// retry waste, and unattributed residue.
	BucketOther

	// NumBuckets is the rollup size.
	NumBuckets = int(BucketOther) + 1
)

var bucketNames = [NumBuckets]string{
	"wrtt", "queue", "headroom", "lockval", "repl", "other",
}

// String returns the bucket's stable lower-case name.
func (b Bucket) String() string {
	if int(b) < NumBuckets {
		return bucketNames[b]
	}
	return "other"
}

var phaseBucket = [NumPhases]Bucket{
	PhaseQueue:    BucketQueue,
	PhaseDispatch: BucketOther,
	PhaseFlight:   BucketWRTT,
	PhaseHeadroom: BucketHeadroom,
	PhasePQ:       BucketHeadroom,
	PhaseExec:     BucketOther,
	PhaseLockWait: BucketLockVal,
	PhaseRepl:     BucketRepl,
	PhaseDecision: BucketOther,
	PhaseRetry:    BucketOther,
	PhaseSafeTime: BucketHeadroom,
	PhaseOther:    BucketOther,
}

// Bucket returns the reporting bucket the phase rolls up into.
func (p Phase) Bucket() Bucket {
	if int(p) < NumPhases {
		return phaseBucket[p]
	}
	return BucketOther
}

// Breakdown is a per-bucket latency attribution. For a finished trace its
// entries sum exactly to End-Start.
type Breakdown [NumBuckets]time.Duration

// Total returns the sum over buckets.
func (b *Breakdown) Total() time.Duration {
	var t time.Duration
	for _, d := range b {
		t += d
	}
	return t
}

// AddTo accumulates b into dst.
func (b *Breakdown) AddTo(dst *Breakdown) {
	for i, d := range b {
		dst[i] += d
	}
}

// Mark is one attribution point: the interval from the previous mark up to At
// belongs to Phase.
type Mark struct {
	At    time.Duration
	Phase Phase
}

// T is one transaction's trace. Protocol hooks call Mark on it; a nil *T
// (tracing disabled) makes every hook a no-op.
type T struct {
	// Idx is the run-local submission index (the tracer's Begin count) —
	// the deterministic identity sampling and tie-breaks key on.
	Idx int
	// Label tags the transaction type (workload label; "txn" when unset).
	Label string
	// Start and End bound the trace in simulator time.
	Start, End time.Duration
	// Committed reports whether the transaction committed.
	Committed bool
	// Marks is the attribution chain, in append order.
	Marks []Mark

	sampled bool
}

// Mark appends an attribution point. Safe on a nil receiver (tracing
// disabled): the hook costs one branch and nothing else.
func (t *T) Mark(at time.Duration, p Phase) {
	if t == nil {
		return
	}
	t.Marks = append(t.Marks, Mark{At: at, Phase: p})
}

// Latency returns End-Start.
func (t *T) Latency() time.Duration { return t.End - t.Start }

// walk attributes the trace's [Start, End] interval across fine-grained
// phases with a clamped monotone cursor: marks never move the cursor
// backwards or past End, and the unclaimed tail is PhaseOther. The result
// sums to End-Start exactly.
func (t *T) walk() (fine [NumPhases]time.Duration) {
	cur := t.Start
	for _, m := range t.Marks {
		at := m.At
		if at > t.End {
			at = t.End
		}
		if at <= cur {
			continue
		}
		fine[m.Phase] += at - cur
		cur = at
	}
	if t.End > cur {
		fine[PhaseOther] += t.End - cur
	}
	return fine
}

// Breakdown rolls the fine-grained walk into reporting buckets (sums to
// End-Start).
func (t *T) Breakdown() Breakdown {
	fine := t.walk()
	var bd Breakdown
	for p, d := range fine {
		bd[Phase(p).Bucket()] += d
	}
	return bd
}

// Config selects what a run's tracer retains.
type Config struct {
	// Seed feeds the deterministic 1-in-N sampler (hash of seed and
	// submission index — never an rng draw, so enabling tracing perturbs no
	// simulation randomness).
	Seed int64
	// SampleEvery retains every transaction whose sample hash lands in a
	// 1-in-SampleEvery slice (0 = 256; negative disables sampling).
	SampleEvery int
	// TopK retains the K slowest committed transactions' full span trees
	// (0 = 8; negative disables).
	TopK int
}

func (c Config) sampleEvery() int {
	if c.SampleEvery == 0 {
		return 256
	}
	return c.SampleEvery
}

func (c Config) topK() int {
	if c.TopK == 0 {
		return 8
	}
	return c.TopK
}

// Tracer records one run's traces. It is owned by the run's single-threaded
// simulation loop; the zero-cost disabled path is a nil *Tracer (Begin then
// returns nil, and every *T hook no-ops).
type Tracer struct {
	// Label names the run in exports (protocol, seed, operating point).
	Label string

	cfg   Config
	begun int

	// Accumulators over committed, finished traces.
	count   int
	phase   Breakdown
	byPhase [NumPhases]time.Duration

	top     []*T // K slowest committed, sorted slowest-first
	samples []*T // deterministic 1-in-N retained span trees
	free    []*T
}

// New returns a tracer for one run. A nil receiver everywhere downstream
// means "disabled", so callers can pass through a nil *Tracer untouched.
func New(label string, cfg Config) *Tracer {
	return &Tracer{Label: label, cfg: cfg}
}

// Begin starts a trace at the submission time. Returns nil (disabled) on a
// nil tracer.
func (tr *Tracer) Begin(label string, now time.Duration) *T {
	if tr == nil {
		return nil
	}
	var t *T
	if n := len(tr.free); n > 0 {
		t = tr.free[n-1]
		tr.free[n-1] = nil
		tr.free = tr.free[:n-1]
	} else {
		t = &T{}
	}
	if label == "" {
		label = "txn"
	}
	t.Idx = tr.begun
	t.Label = label
	t.Start = now
	t.End = now
	t.Committed = false
	t.Marks = t.Marks[:0]
	t.sampled = false
	tr.begun++
	return t
}

// Finish seals the trace at now and returns its bucket breakdown (which sums
// exactly to now-Start). When keep is set (committed inside the measurement
// window) the breakdown is accumulated and the trace considered for
// retention; otherwise the trace is recycled immediately. Nil-safe.
func (tr *Tracer) Finish(t *T, now time.Duration, keep bool) Breakdown {
	if tr == nil || t == nil {
		return Breakdown{}
	}
	t.End = now
	t.Committed = keep
	fine := t.walk()
	var bd Breakdown
	for p, d := range fine {
		bd[Phase(p).Bucket()] += d
	}
	if !keep {
		tr.recycle(t)
		return bd
	}
	tr.count++
	bd.AddTo(&tr.phase)
	for p, d := range fine {
		tr.byPhase[p] += d
	}
	tr.retain(t)
	return bd
}

// retain keeps t if it is hash-sampled or among the K slowest; otherwise it
// is recycled. All comparisons tie-break on submission index, so retention is
// a pure function of the seed.
func (tr *Tracer) retain(t *T) {
	if n := tr.cfg.sampleEvery(); n > 0 && sampleHash(tr.cfg.Seed, t.Idx)%uint64(n) == 0 {
		t.sampled = true
		tr.samples = append(tr.samples, t)
	}
	k := tr.cfg.topK()
	if k <= 0 {
		if !t.sampled {
			tr.recycle(t)
		}
		return
	}
	// Insert into the slowest-first top list; ties prefer the earlier
	// submission (deterministic and stable across workers).
	pos := len(tr.top)
	for pos > 0 && slower(t, tr.top[pos-1]) {
		pos--
	}
	if pos >= k {
		if !t.sampled {
			tr.recycle(t)
		}
		return
	}
	tr.top = append(tr.top, nil)
	copy(tr.top[pos+1:], tr.top[pos:])
	tr.top[pos] = t
	if len(tr.top) > k {
		evicted := tr.top[k]
		tr.top = tr.top[:k]
		if !evicted.sampled {
			tr.recycle(evicted)
		}
	}
}

// slower reports whether a outranks b in the top list: strictly higher
// latency, or equal latency and earlier submission.
func slower(a, b *T) bool {
	la, lb := a.Latency(), b.Latency()
	if la != lb {
		return la > lb
	}
	return a.Idx < b.Idx
}

func (tr *Tracer) recycle(t *T) {
	tr.free = append(tr.free, t)
}

// Summary is a run's sealed trace output: phase accumulators plus the
// retained exemplar span trees, ordered by submission index.
type Summary struct {
	// Label names the run (protocol, seed, operating point).
	Label string
	// Begun counts traces started; Count counts committed traces that were
	// accumulated (inside the measurement window).
	Begun, Count int
	// Phase sums the bucket breakdowns of the Count committed traces;
	// ByPhase is the same sum at fine phase granularity.
	Phase   Breakdown
	ByPhase [NumPhases]time.Duration
	// Exemplars are the retained span trees (top-K slowest plus the 1-in-N
	// sample), sorted by submission index and deduplicated.
	Exemplars []*T
}

// Mean returns the average per-transaction time in bucket b (0 with no
// committed traces).
func (s *Summary) Mean(b Bucket) time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Phase[b] / time.Duration(s.Count)
}

// Share returns bucket b's percentage of total attributed time.
func (s *Summary) Share(b Bucket) float64 {
	tot := s.Phase.Total()
	if tot == 0 {
		return 0
	}
	return 100 * float64(s.Phase[b]) / float64(tot)
}

// MeanTotal returns the average end-to-end latency of committed traces.
func (s *Summary) MeanTotal() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Phase.Total() / time.Duration(s.Count)
}

// Summary seals the tracer into its exportable form. Nil-safe (returns nil).
func (tr *Tracer) Summary() *Summary {
	if tr == nil {
		return nil
	}
	s := &Summary{
		Label: tr.Label, Begun: tr.begun, Count: tr.count,
		Phase: tr.phase, ByPhase: tr.byPhase,
	}
	seen := make(map[int]bool, len(tr.top)+len(tr.samples))
	for _, t := range tr.top {
		if !seen[t.Idx] {
			seen[t.Idx] = true
			s.Exemplars = append(s.Exemplars, t)
		}
	}
	for _, t := range tr.samples {
		if !seen[t.Idx] {
			seen[t.Idx] = true
			s.Exemplars = append(s.Exemplars, t)
		}
	}
	// Submission-index order: deterministic, and the Chrome export keeps
	// a stable thread layout.
	for i := 1; i < len(s.Exemplars); i++ {
		for j := i; j > 0 && s.Exemplars[j].Idx < s.Exemplars[j-1].Idx; j-- {
			s.Exemplars[j], s.Exemplars[j-1] = s.Exemplars[j-1], s.Exemplars[j]
		}
	}
	return s
}

// sampleHash mixes the tracer seed and a submission index (splitmix64
// finalizer) for the 1-in-N exemplar sample: deterministic, uniform, and
// independent of every simulation rng.
func sampleHash(seed int64, idx int) uint64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(idx)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Package txn defines the transaction model shared by Tiga and all baseline
// protocols: one-shot stored procedures split into per-shard pieces with
// declared read/write sets, plus the decomposition machinery (paper
// Appendix F) that turns interactive transactions into chains of one-shot
// transactions.
package txn

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"tiga/internal/trace"
)

// ID uniquely identifies a transaction: the coordinator attaches a sequence
// number at submission (paper §3.7 footnote).
type ID struct {
	Coord int32
	Seq   uint64
}

// Timestamp is Tiga's transaction timestamp. Time is the future timestamp in
// simulated nanoseconds; (Coord, Seq) break ties deterministically so the
// timestamp order is total.
type Timestamp struct {
	Time  time.Duration
	Coord int32
	Seq   uint64
}

// Less reports whether a orders strictly before b.
func (a Timestamp) Less(b Timestamp) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Coord != b.Coord {
		return a.Coord < b.Coord
	}
	return a.Seq < b.Seq
}

// Equal reports whether the two timestamps are identical.
func (a Timestamp) Equal(b Timestamp) bool { return a == b }

// IsZero reports whether the timestamp is unset.
func (a Timestamp) IsZero() bool { return a == Timestamp{} }

// KV is the store view a piece executes against: the keys a workload numbered
// are read and written by id, everything else — a hand-built piece, a row the
// transaction inserts — by name. The two forms reach one state: a view finds a
// write made under a key's name when the key is read by its id, and the other
// way round. internal/store has the only two implementations, the view of an
// optimistic execution and the write-buffering one.
//
// Bytes is where a piece builds what it hands on: a value it puts, the result
// it returns. It returns an empty buffer with room for n bytes, which the
// executing store owns and carves from chunks it never reuses, so the piece may
// fill it once and give it away: a result outlives the execution (a replica
// keeps it for a retransmission, a coordinator hands it to its caller), and no
// two calls share bytes. Nothing may append past n, or write into the bytes
// once they are put or returned. A value put through a view is immutable from
// then on; the store may keep it as it is, as the shared encoding of the same
// bytes, or as a copy of its own. Int encodes an integer this way.
type KV interface {
	Get(key string) []byte
	Put(key string, val []byte)
	GetID(id KeyID) []byte
	PutID(id KeyID, val []byte)
	Bytes(n int) []byte
}

// KeyID is a dense per-shard interned key index: key i of a shard's seeded
// keyspace (store.Image order, which every workload generator, TPC-C
// included, makes equal to its own key index). A piece executes on exactly one
// shard, so its ids need no shard qualifier, and every copy of a shard is
// attached to the same image, so a seeded key's id holds on all of them. Execution runs on
// ids in all nine protocols. Names remain for what crosses stores or leaves the
// system — lock tables, wire messages, the checkers, rendering — and for keys
// no generator can number ahead of time (rows a transaction inserts): each
// store numbers those itself when it first meets them (store.Intern), so such
// an id means nothing on another store.
type KeyID = uint32

// NoKeyID marks a position of ReadIDs/WriteIDs whose key has no id the
// workload could know (an inserted row): the shard's store supplies one by
// name (store.ID).
const NoKeyID = ^KeyID(0)

// Executor runs one shard's piece of a transaction against the shard's store
// and returns an opaque per-shard result. A generator implements it on the
// draw it carves: the piece points at an interface value beside it, which holds
// a pointer and so costs no allocation. A hand-written piece wraps a closure
// in a PieceFunc.
type Executor interface {
	Run(kv KV) []byte
}

// PieceFunc is the Executor of a hand-written piece: a closure.
type PieceFunc func(kv KV) []byte

// Run calls f.
func (f PieceFunc) Run(kv KV) []byte { return f(kv) }

// Func returns f as a piece's Exec, in an allocation of its own: the adapter a
// hand-written piece (an example, a test, the string helpers below) uses.
func Func(f PieceFunc) *Executor {
	e := Executor(f)
	return &e
}

// Op tags what a piece does when it runs. The two operations every synthetic
// generator emits are tagged values dispatched by Piece.Run, so generating
// them allocates nothing; OpExec runs the piece's Executor. The rule: a
// generator's piece carries an op or an executor carved with its draw (TPC-C's
// pieces), a hand-written piece carries a closure (Func).
type Op uint8

const (
	// OpExec runs the piece's Exec.
	OpExec Op = iota
	// OpRead returns the value of the one key the piece numbers in ReadIDs.
	OpRead
	// OpIncrement adds one to every key the piece numbers in WriteIDs, in
	// order, and returns the last new value. Stored values are immutable, so
	// the buffer handed to PutID doubles as the piece result.
	OpIncrement
)

// Piece is the fragment of a one-shot transaction executed by a single shard.
// ReadSet and WriteSet are declared up front (one-shot stored procedure), so
// servers can do conflict detection without executing.
type Piece struct {
	ReadSet  []string
	WriteSet []string
	// ReadIDs/WriteIDs are the interned forms of ReadSet/WriteSet, set by
	// workloads whose keyspace is seeded densely (every registered one); nil
	// for hand-built string pieces. When set, they are positionally parallel
	// to the string sets, with NoKeyID where only the name is known.
	ReadIDs  []KeyID
	WriteIDs []KeyID
	// Exec points at what an OpExec piece runs; the tagged ops leave it nil.
	// One word, not an interface's two: the value it points at lives beside
	// the piece (in the draw that built it, or Func's allocation), and a Piece
	// stays in its size class.
	Exec *Executor
	Op   Op
	// shard is where the piece runs, in four bytes of the padding beside Op: a
	// Piece stays in its size class.
	shard int32
}

// On returns the piece placed on shard, which is what ByShard takes.
func (p Piece) On(shard int) Piece {
	p.shard = int32(shard)
	return p
}

// Shard returns the shard the piece runs on.
func (p *Piece) Shard() int { return int(p.shard) }

// Run executes the piece against kv. It is the one way a piece is executed:
// the store's views call it, and so does anything else that holds a piece.
func (p *Piece) Run(kv KV) []byte {
	switch p.Op {
	case OpRead:
		return kv.GetID(p.ReadIDs[0])
	case OpIncrement:
		var out []byte
		for _, id := range p.WriteIDs {
			out = Int(kv, DecodeInt(kv.GetID(id))+1)
			kv.PutID(id, out)
		}
		return out
	}
	return (*p.Exec).Run(kv)
}

// Tagged returns the piece that runs op (OpRead or OpIncrement) on keys, whose
// ids are positionally parallel; both slices stay the caller's. What an op
// declares is fixed here, beside what it does: a read declares its key read,
// an increment declares its keys read and written.
func Tagged(op Op, keys []string, ids []KeyID) Piece {
	p := Piece{ReadSet: keys, ReadIDs: ids, Op: op}
	if op == OpIncrement {
		p.WriteSet, p.WriteIDs = keys, ids
	}
	return p
}

// Conflicts reports whether two pieces have a read-write or write-write
// conflict on any key.
func Conflicts(a, b *Piece) bool {
	if a == nil || b == nil {
		return false
	}
	for _, k := range a.WriteSet {
		if slices.Contains(b.WriteSet, k) || slices.Contains(b.ReadSet, k) {
			return true
		}
	}
	for _, k := range a.ReadSet {
		if slices.Contains(b.WriteSet, k) {
			return true
		}
	}
	return false
}

// Txn is a one-shot transaction spanning one or more shards.
type Txn struct {
	ID ID
	// Pieces holds one piece per involved shard in ascending shard order, as
	// ByShard builds it: a loop over it is the deterministic order of every
	// multicast, and a coordinator indexes its per-shard state by position.
	Pieces   []Piece
	ReadOnly bool
	// Label tags the transaction type for metrics (e.g. "neworder").
	Label string
	// Trace is the transaction's span recorder (internal/trace), attached by
	// the load driver when the run is traced and nil otherwise — protocol
	// hooks call methods on it unconditionally, and the nil receiver makes
	// every hook a free no-op on untraced runs.
	Trace *trace.T
}

// ByShard is the one way a transaction's Pieces are built: it sorts pieces,
// each placed on its shard by On, into ascending shard order — in place, the
// result is the same slice — and panics when two name the same shard.
func ByShard(pieces ...Piece) []Piece {
	slices.SortFunc(pieces, func(a, b Piece) int { return cmp.Compare(a.shard, b.shard) })
	for i := 1; i < len(pieces); i++ {
		if pieces[i].shard == pieces[i-1].shard {
			panic(fmt.Sprintf("txn: two pieces on shard %d", pieces[i].shard))
		}
	}
	return pieces
}

// Pos returns the position of shard's piece in Pieces, -1 when the transaction
// does not touch the shard. A scan: transactions span a few shards.
func (t *Txn) Pos(shard int) int {
	for i := range t.Pieces {
		if t.Pieces[i].shard == int32(shard) {
			return i
		}
	}
	return -1
}

// Piece returns the piece t runs on shard, nil when it does not touch it.
func (t *Txn) Piece(shard int) *Piece {
	if i := t.Pos(shard); i >= 0 {
		return &t.Pieces[i]
	}
	return nil
}

// ConflictsWith reports whether t and o conflict on any common shard.
func (t *Txn) ConflictsWith(o *Txn) bool {
	for i, j := 0, 0; i < len(t.Pieces) && j < len(o.Pieces); {
		switch p, q := &t.Pieces[i], &o.Pieces[j]; {
		case p.shard < q.shard:
			i++
		case p.shard > q.shard:
			j++
		case Conflicts(p, q):
			return true
		default:
			i, j = i+1, j+1
		}
	}
	return false
}

// ShardRet is one shard's piece result.
type ShardRet struct {
	Shard int
	Ret   []byte
}

// PutRet records that shard's piece returned ret, keeping rets in ascending
// shard order; a shard that reports again replaces its entry. Folding replies
// as they arrive is complete, and parallel to t.Pieces, at len(t.Pieces).
func PutRet(rets []ShardRet, shard int, ret []byte) []ShardRet {
	i, found := slices.BinarySearchFunc(rets, shard, func(r ShardRet, sh int) int { return cmp.Compare(r.Shard, sh) })
	if !found {
		rets = slices.Insert(rets, i, ShardRet{Shard: shard})
	}
	rets[i].Ret = ret
	return rets
}

// Result carries the per-shard execution results back to the client.
type Result struct {
	OK      bool
	Aborted bool
	// PerShard holds the pieces' return values, parallel to the transaction's
	// Pieces. An entry names its shard because Interactive.Next holds only this.
	// It is the caller's to keep: no coordinator writes into it after the
	// callback, though it may share a chunk with other results (cap-limited).
	PerShard []ShardRet
	// FastPath reports whether the commit used the protocol's fast path.
	FastPath bool
	// Retries counts protocol-level retries before the final outcome.
	Retries int
	// TS is the agreed commit timestamp (Tiga only): the serialization
	// point used by the strict-serializability checker.
	TS Timestamp
	// SnapshotAt is the snapshot timestamp a local read-only transaction
	// was served at (zero for the coordinator path).
	SnapshotAt time.Duration
	// Waited is the SAFETIME delay a local read spent blocked behind a
	// lagging replica watermark (max across the shards it touched).
	Waited time.Duration
	// Reads records, per key, which committed version a local read-only
	// transaction observed — the evidence the snapshot-read checker
	// validates against the commit history. Like PerShard it is never
	// overwritten once reported.
	Reads []ReadObs
	// Queued is the time the transaction spent waiting in a coordinator
	// admission queue before the protocol started working on it (zero when
	// admission control is off or the gate had a free slot). Open-loop runs
	// report it separately from service latency.
	Queued time.Duration
	// Shed reports that a coordinator admission gate refused the
	// transaction without running the protocol (Aborted is also set).
	Shed bool
}

// Ret returns what shard's piece returned, nil for an untouched shard.
func (r *Result) Ret(shard int) []byte {
	for i := range r.PerShard {
		if r.PerShard[i].Shard == shard {
			return r.PerShard[i].Ret
		}
	}
	return nil
}

// ReadObs is one observed read of a snapshot transaction: the key and the
// commit timestamp of the version it saw (zero for seeded initial values).
type ReadObs struct {
	Key string
	TS  Timestamp
}

// Interactive is a multi-shot (dependent) transaction decomposed into a chain
// of one-shot transactions per Appendix F. Next produces stage i given the
// results of stage i-1; done=true ends the chain; abort=true means the
// validation stage failed and the whole chain must restart from stage 0. A
// generator implements it on the draw it carves, so a chain costs no
// allocation of its own.
type Interactive interface {
	Next(stage int, prev *Result) (t *Txn, done bool, abort bool)
}

// EncodeInt encodes an int64 as an 8-byte little-endian value — the value
// format used by MicroBench counters and TPC-C numeric columns. A value in
// [-SmallInts, SmallInts) is not allocated: it is a slice of one package-level
// table, cut so that len == cap == 8, which an append copies out of and
// nothing may write into. Stored values are immutable, so every key, store and
// node that holds such a value shares the table's bytes.
func EncodeInt(v int64) []byte {
	if b := small(v); b != nil {
		return b
	}
	return AppendInt(make([]byte, 0, 8), v)
}

// Int is EncodeInt for a piece: a value outside the shared table is encoded
// into 8 of the executing store's bytes (KV.Bytes) instead of an allocation of
// its own. The encodings are the same byte for byte.
func Int(kv KV, v int64) []byte {
	if b := small(v); b != nil {
		return b
	}
	return AppendInt(kv.Bytes(8), v)
}

// small returns v's slice of the shared table, nil when v is outside it.
func small(v int64) []byte {
	if -SmallInts <= v && v < SmallInts {
		i := (v + SmallInts) * 8
		return smallInts[i : i+8 : i+8]
	}
	return nil
}

// SmallInts bounds the values EncodeInt serves from its table. It covers every
// TPC-C seed value (±1000), stock quantities and MicroBench counters. It does
// not cover what TPC-C's payments accumulate (year-to-date sums, customer
// balances) nor a customer's last order (c_last_o, a draw's unique id above 20
// random bits): a piece encodes those with Int, into its store's bytes. See
// EXPERIMENTS.md for the histogram of values encoded per workload.
const SmallInts = 1024

// smallInts holds the encodings of [-SmallInts, SmallInts) back to back.
var smallInts = func() []byte {
	b := make([]byte, 0, 2*SmallInts*8)
	for v := int64(-SmallInts); v < SmallInts; v++ {
		b = AppendInt(b, v)
	}
	return b
}()

// AppendInt appends the 8-byte encoding of v to b: a piece that returns more
// than one integer builds its result in one buffer.
func AppendInt(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// DecodeInt decodes a value written by EncodeInt; nil decodes to 0.
func DecodeInt(b []byte) int64 {
	if len(b) < 8 {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// IncrementPiece returns a piece that atomically increments the given keys —
// the MicroBench read-modify-write operation.
func IncrementPiece(keys ...string) *Piece {
	ks := append([]string(nil), keys...)
	return &Piece{
		ReadSet:  ks,
		WriteSet: ks,
		Exec: Func(func(kv KV) []byte {
			var last int64
			for _, k := range ks {
				last = DecodeInt(kv.Get(k)) + 1
				kv.Put(k, EncodeInt(last))
			}
			return EncodeInt(last)
		}),
	}
}

// numbered is the one allocation behind ReadPieceID and IncrementPieceID: the
// piece and the one-key sets its slices point into.
type numbered struct {
	Piece
	key [1]string
	id  [1]KeyID
}

func newNumbered(op Op, key string, id KeyID) *Piece {
	n := &numbered{key: [1]string{key}, id: [1]KeyID{id}}
	n.Piece = Tagged(op, n.key[:], n.id[:])
	return &n.Piece
}

// IncrementPieceID is IncrementPiece for one key the workload numbered.
func IncrementPieceID(key string, id KeyID) *Piece { return newNumbered(OpIncrement, key, id) }

// ReadPiece returns a read-only piece fetching one key.
func ReadPiece(key string) *Piece {
	return &Piece{
		ReadSet: []string{key},
		Exec:    Func(func(kv KV) []byte { return kv.Get(key) }),
	}
}

// ReadPieceID is ReadPiece for one key the workload numbered.
func ReadPieceID(key string, id KeyID) *Piece { return newNumbered(OpRead, key, id) }

// WritePiece returns a blind-write piece setting one key.
func WritePiece(key string, val []byte) *Piece {
	return &Piece{
		WriteSet: []string{key},
		Exec: Func(func(kv KV) []byte {
			kv.Put(key, val)
			return nil
		}),
	}
}

// What only this package's tests call, kept out of the product build: no
// entry point runs it (ci/reach.sh).

package tiga

import (
	"time"

	"tiga/internal/simnet"
)

// Log returns a copy of the server's log entries (tests).
func (s *Server) Log() []logEntry { return s.logCopy(0) }

// SyncPoint returns the current sync-point (tests).
func (s *Server) SyncPoint() int { return s.syncPoint }

// Node returns the underlying simnet node.
func (s *Server) Node() *simnet.Node { return s.node }

// StateSizes is how much a server holds of each kind of state, and how often
// its queue had to repair itself. What a drained server must have let go of —
// agreements, tail records, buffered log-syncs — the tests assert is zero.
// Records and Retired together are the transactions heard of since the last
// log install.
type StateSizes struct {
	Records         int   // live records: transactions heard of and not retired
	Retired         int   // records retired since the last log install
	LateRetired     int64 // messages that named a retired transaction, answered with nothing
	ConflictEntries int   // keys those transactions touched
	Parked          int   // parked counts over all keys: (record, key) pairs waiting on agreement in the queue
	Agreements      int   // live §3.5 agreement objects
	TailRecords     int   // follower: released optimistically, not yet synced
	BufferedSyncs   int   // follower: log-sync messages waiting for a gap to fill
	LogLen          int   // log entries (leader), synced prefix (follower)
	EraseFallbacks  int64 // queue erases that found the order invariant broken
}

// StateSizes reports the server's state sizes (tests, gauges).
func (s *Server) StateSizes() StateSizes {
	return StateSizes{
		Records:         len(s.recs),
		Retired:         s.retired,
		LateRetired:     s.lateRetired,
		ConflictEntries: s.keys.entries.Len(),
		Parked:          s.keys.parked,
		Agreements:      len(s.agreements),
		TailRecords:     s.tails,
		BufferedSyncs:   len(s.pendingSync),
		LogLen:          s.log.Len(),
		EraseFallbacks:  s.pq.fallbacks,
	}
}

// SafeTime exposes the replica's current watermark (tests).
func (s *Server) SafeTime() time.Duration { return s.reads.Watermark() }

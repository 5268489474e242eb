package tiga

import (
	"time"

	"tiga/internal/protocol"
	"tiga/internal/txn"
)

// Local snapshot reads (Config.LocalReads): read-only transactions skip the
// timestamp-agreement machinery entirely and ask the nearest replica of each
// touched shard for a consistent snapshot at one timestamp — 0 WRTT when the
// replicas are local, against the coordinator path's 1 WRTT floor. The read
// path itself is internal/snapread; what is Tiga's is the snapshot clock (the
// coordinator's synchronized clock), the re-drive interval (RetryTimeout) and
// the leader's watermark rule (advanceSafeTime in server.go).

// SubmitLocalRead implements protocol.SnapshotReadable.
func (c *Cluster) SubmitLocalRead(coord int, t *txn.Txn, done func(txn.Result)) {
	co := c.Coords[coord]
	co.seq++
	t.ID = txn.ID{Coord: co.idx, Seq: co.seq}
	co.reads.Submit(t, done)
}

// SafeTimes implements protocol.SnapshotReadable: every replica's current
// watermark in shard-major order.
func (c *Cluster) SafeTimes() []time.Duration {
	out := make([]time.Duration, 0, c.Cfg.Shards*c.Cfg.Replicas())
	for _, shard := range c.Servers {
		for _, s := range shard {
			out = append(out, s.reads.Watermark())
		}
	}
	return out
}

// LieSafeTime makes one replica advertise a watermark ahead of its real one —
// fault injection for the snapshot-read checker tests.
func (c *Cluster) LieSafeTime(shard, replica int, ahead time.Duration) {
	c.Servers[shard][replica].reads.Lie(ahead)
}

var _ protocol.SnapshotReadable = (*Cluster)(nil)

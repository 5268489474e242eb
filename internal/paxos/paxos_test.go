package paxos

import (
	"os"
	"slices"
	"testing"
	"time"

	"tiga/internal/pool"
	"tiga/internal/simnet"
)

// TestMain arms pool.Check for every group the tests build: putting a message
// back twice, or into a list it did not come from, panics.
func TestMain(m *testing.M) {
	pool.Check = true
	os.Exit(m.Run())
}

// rig is a group of n replicas on one network, replica 0 leading, each
// replica alone on its node. It counts what every node was delivered.
type rig struct {
	sim     *simnet.Sim
	net     *simnet.Network
	nodes   []simnet.NodeID
	reps    []*Replica
	applied [][]Command

	accepts, acks, commits int
}

// newRig places replica i in region i modulo the configuration's regions.
func newRig(seed int64, cfg simnet.Config, n, f int) *rig {
	g := &rig{sim: simnet.NewSim(seed)}
	g.net = simnet.NewNetwork(g.sim, cfg)
	for i := 0; i < n; i++ {
		g.nodes = append(g.nodes, g.net.AddNode(simnet.Region(i%len(cfg.OWD)), nil).ID())
	}
	g.reps = make([]*Replica, n)
	g.applied = make([][]Command, n)
	for i := range g.reps {
		i := i
		g.reps[i] = NewReplica("g", g.net.Node(g.nodes[i]), g.nodes, i, 0, f)
		g.reps[i].OnCommit = func(slot int, cmd Command) { g.applied[i] = append(g.applied[i], cmd) }
		g.net.Node(g.nodes[i]).SetHandler(func(from simnet.NodeID, msg simnet.Message) {
			switch msg.(type) {
			case *accept:
				g.accepts++
			case *ack:
				g.acks++
			case *commit:
				g.commits++
			}
			g.reps[i].Handle(from, msg)
		})
	}
	return g
}

// group is three replicas on the paper's WAN (leader in South Carolina),
// lossless, with 1 ms of jitter.
func group(t *testing.T) *rig {
	t.Helper()
	return newRig(3, simnet.GeoConfig(time.Millisecond, 0), 3, 1)
}

// zeroDelay is one region with no delay, jitter or loss.
var zeroDelay = simnet.Config{OWD: simnet.SymmetricOWD([][]time.Duration{{0}}, 0)}

// drive proposes n commands, one a millisecond, and drains the simulator.
func (g *rig) drive(n int) {
	for i := 0; i < n; i++ {
		i := i
		g.sim.At(time.Duration(i)*time.Millisecond, func() { g.reps[0].Propose(i) })
	}
	g.drain()
}

func (g *rig) drain() {
	for g.sim.Step() {
	}
}

// ackFrom is the ack replica r sends for slot, drawn from r's own list.
func ackFrom(r *Replica, slot int) *ack {
	m := r.acks.Get()
	*m = ack{src: r, Slot: slot}
	return m
}

func TestReplicationCommitsEverywhere(t *testing.T) {
	g := group(t)
	g.sim.At(0, func() {
		for i := 0; i < 10; i++ {
			g.reps[0].Propose(i)
		}
	})
	g.sim.Run(2 * time.Second)
	for r := 0; r < 3; r++ {
		if len(g.applied[r]) != 10 {
			t.Fatalf("replica %d applied %d of 10", r, len(g.applied[r]))
		}
		for i, c := range g.applied[r] {
			if c.(int) != i {
				t.Fatalf("replica %d applied out of order: %v", r, g.applied[r])
			}
		}
	}
	if g.reps[0].Committed() != 10 {
		t.Fatalf("leader commit point %d", g.reps[0].Committed())
	}
}

func TestCommitLatencyIsOneWRTT(t *testing.T) {
	g := group(t)
	var committedAt time.Duration
	g.reps[0].OnCommit = func(slot int, cmd Command) { committedAt = g.sim.Now() }
	g.sim.At(0, func() { g.reps[0].Propose("x") })
	g.sim.Run(time.Second)
	// Leader in SC; nearest majority partner is Finland (55 ms OWD):
	// accept out + ack back ≈ 110 ms (+jitter).
	if committedAt < 105*time.Millisecond || committedAt > 130*time.Millisecond {
		t.Fatalf("commit at %v; want ~110ms (1 WRTT to nearest majority)", committedAt)
	}
}

// TestProposeFromOnCommit proposes from inside the leader's OnCommit, as a
// lockocc leader does when a commit's lock release grants a waiting relock:
// the new slot is the commit point, so Propose reaches apply while apply is
// running. Every slot must still be applied once, in order, with Applied()
// naming the slot being applied.
func TestProposeFromOnCommit(t *testing.T) {
	g := group(t)
	var slots, seen []int
	g.reps[0].OnCommit = func(slot int, cmd Command) {
		slots = append(slots, slot)
		seen = append(seen, g.reps[0].Applied())
		if len(slots) < 3 {
			g.reps[0].Propose(len(slots))
		}
	}
	g.sim.At(0, func() { g.reps[0].Propose(0) })
	g.drain()
	if want := []int{0, 1, 2}; !slices.Equal(slots, want) || !slices.Equal(seen, want) {
		t.Fatalf("OnCommit saw slots %v with Applied() %v, want %v for both", slots, seen, want)
	}
	for r := 1; r < 3; r++ {
		if len(g.applied[r]) != 3 {
			t.Fatalf("follower %d applied %v, want three slots", r, g.applied[r])
		}
	}
}

// TestLossRecoveryViaLaterCommits runs with pool.Check armed (TestMain): the
// messages the network drops are never put back, and must leak quietly.
func TestLossRecoveryViaLaterCommits(t *testing.T) {
	// With message loss, later accepts carry the commit point so followers
	// converge.
	g := newRig(9, simnet.GeoConfig(time.Millisecond, 0.2), 3, 1)
	for i := 0; i < 50; i++ {
		i := i
		g.sim.At(time.Duration(i*10)*time.Millisecond, func() { g.reps[0].Propose(i) })
	}
	g.net.Node(g.nodes[0]).Every(100*time.Millisecond, func() bool { g.reps[0].Tick(); return true })
	g.sim.Run(5 * time.Second)
	// The leader must commit everything (each accept retried implicitly by
	// subsequent proposals; with 20% loss a majority eventually acks).
	if g.reps[0].Committed() < 45 {
		t.Fatalf("leader committed only %d of 50 under loss", g.reps[0].Committed())
	}
	if g.net.Dropped == 0 {
		t.Fatal("the lossy network dropped nothing")
	}
}

// TestMessagesComeHome drives 1 000 proposals through a lossless group and
// drains it: every message was delivered, so every one is back on the list of
// the replica that sent it — nothing leaked, nothing was put back twice.
func TestMessagesComeHome(t *testing.T) {
	g := group(t)
	g.drive(1000)
	for r, rep := range g.reps {
		if len(g.applied[r]) != 1000 {
			t.Fatalf("replica %d applied %d of 1000", r, len(g.applied[r]))
		}
		for _, l := range []struct {
			name        string
			news, idle  int
			wantTraffic bool
		}{
			{"accept", rep.accepts.News, rep.accepts.Idle(), r == 0},
			{"ack", rep.acks.News, rep.acks.Idle(), r != 0},
			{"commit", rep.commits.News, rep.commits.Idle(), r == 0},
		} {
			if l.news != l.idle {
				t.Errorf("replica %d %s list: %d allocated, %d back", r, l.name, l.news, l.idle)
			}
			if l.wantTraffic != (l.news > 0) {
				t.Errorf("replica %d allocated %d %s messages", r, l.news, l.name)
			}
		}
	}
	if sent := g.accepts + g.acks + g.commits; int64(sent) != g.net.Sent {
		t.Fatalf("delivered %d paxos messages, the network sent %d", sent, g.net.Sent)
	}
}

// TestAckWindow feeds the leader acks by hand; the accepts it sends stay in
// the simulator's queue.
func TestAckWindow(t *testing.T) {
	deliver := func(t *testing.T, g *rig, from, slot int) {
		t.Helper()
		if !g.reps[0].Handle(g.nodes[from], ackFrom(g.reps[from], slot)) {
			t.Fatal("the leader did not consume an ack of its own group")
		}
	}
	commits := func(t *testing.T, g *rig, want int) {
		t.Helper()
		if got := g.reps[0].Committed(); got != want {
			t.Fatalf("leader committed %d slots, want %d", got, want)
		}
	}

	t.Run("duplicate ack counts once", func(t *testing.T) {
		g := newRig(1, zeroDelay, 5, 2)
		g.reps[0].Propose("a")
		deliver(t, g, 1, 0)
		deliver(t, g, 1, 0)
		commits(t, g, 0) // two holders of three
		deliver(t, g, 2, 0)
		commits(t, g, 1)
	})
	t.Run("ack for a committed slot is ignored", func(t *testing.T) {
		g := newRig(1, zeroDelay, 3, 1)
		for s := 0; s < 16; s++ {
			g.reps[0].Propose(s)
			deliver(t, g, 1, s)
		}
		commits(t, g, 16)
		// Slot 16 takes slot 0's place in a window of sixteen; a late ack for
		// slot 0 must not count toward it (Tick re-counts the window's head).
		g.reps[0].Propose(16)
		deliver(t, g, 2, 0)
		g.reps[0].Tick()
		commits(t, g, 16)
		deliver(t, g, 2, 16)
		commits(t, g, 17)
	})
	t.Run("ack past the log is ignored", func(t *testing.T) {
		g := newRig(1, zeroDelay, 3, 1)
		g.reps[0].Propose("a")
		deliver(t, g, 1, 1)
		commits(t, g, 0)
		g.reps[0].Propose("b")
		deliver(t, g, 1, 0)
		commits(t, g, 1) // slot 1's early ack was not kept for it
		deliver(t, g, 1, 1)
		commits(t, g, 2)
	})
	t.Run("InstallLog tail needs fresh acks", func(t *testing.T) {
		g := newRig(1, zeroDelay, 3, 1)
		for _, c := range []string{"a", "b", "c"} {
			g.reps[0].Propose(c)
		}
		deliver(t, g, 1, 1)
		deliver(t, g, 1, 2)
		commits(t, g, 0) // slot 0 holds up the two acked slots behind it
		g.reps[0].installLog([]Command{"a", "b", "c"}, 0)
		deliver(t, g, 1, 0)
		commits(t, g, 1) // the re-proposed tail forgot the acks it had
		deliver(t, g, 2, 1)
		deliver(t, g, 2, 2)
		commits(t, g, 3)
	})
}

// TestSteadyProposeAllocatesNothing: once the freelists are warm, a proposal,
// its accepts, acks and commits, and their delivery allocate nothing (the
// logs' growth is amortised).
func TestSteadyProposeAllocatesNothing(t *testing.T) {
	pool.Check = false // its id maps allocate
	defer func() { pool.Check = true }()
	g := newRig(1, zeroDelay, 3, 1)
	for _, rep := range g.reps {
		rep.OnCommit = nil
	}
	var cmd Command = "x"
	step := func() {
		g.reps[0].Propose(cmd)
		for g.sim.Step() {
		}
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs >= 1 {
		t.Fatalf("%.2f allocations per proposal", allocs)
	}
	if got := g.reps[2].Applied(); got != 1101 {
		t.Fatalf("follower applied %d of 1101", got)
	}
}

// TestLosslessResendShare pins a known deviation (EXPERIMENTS.md "Known
// deviations"): every Propose re-sends the three oldest uncommitted slots to
// each follower that has not acked them, and over WAN links a slot stays
// uncommitted for a round trip, so most accepts on a lossless network are
// re-sends. A retransmission fix moves these numbers on purpose.
func TestLosslessResendShare(t *testing.T) {
	g := group(t)
	const proposals = 1000
	g.drive(proposals)
	if g.net.Dropped != 0 || int64(g.accepts+g.acks+g.commits) != g.net.Sent {
		t.Fatalf("lossless run: %d sent, %d dropped, %d delivered", g.net.Sent, g.net.Dropped, g.accepts+g.acks+g.commits)
	}
	resent := g.accepts - 2*proposals
	t.Logf("%d messages: %d accepts (%d re-sent, %.1f %%), %d acks, %d commits",
		g.net.Sent, g.accepts, resent, 100*float64(resent)/float64(g.accepts), g.acks, g.commits)
	// 7 980 of 9 980 accepts (80 %) are re-sends, each answered by an ack:
	// 15 960 of the 21 864 messages.
	if g.net.Sent != 21864 || resent != 7980 {
		t.Fatalf("sent %d messages, re-sent %d accepts; pinned at 21864 and 7980", g.net.Sent, resent)
	}
}

// reboot replaces member i by an empty replica on the same node, as an owner
// does when it restarts a crashed server, and starts its rejoin.
func (g *rig) reboot(i int, done func()) *Replica {
	nd := g.net.Node(g.nodes[i])
	nd.Crash()
	nd.Restart()
	g.reps[i] = NewReplica("g", nd, g.nodes, i, 0, g.reps[i].f)
	g.applied[i] = nil
	g.reps[i].OnCommit = func(slot int, cmd Command) { g.applied[i] = append(g.applied[i], cmd) }
	g.reps[i].Rejoin(done)
	return g.reps[i]
}

// hold sets member i's log and commit point by hand, as if it had taken part
// in the run so far and applied its committed prefix.
func (g *rig) hold(i int, commitTo int, log ...Command) {
	g.reps[i].log, g.reps[i].commitTo, g.reps[i].applied = log, commitTo, commitTo
}

func TestRejoin(t *testing.T) {
	t.Run("survivors with complementary gaps merge into one log", func(t *testing.T) {
		g := newRig(1, zeroDelay, 3, 1)
		// Both hold slot 0, with different commands: member order picks
		// replica 0's. No one holds slot 3, so slot 4 cannot have committed.
		g.hold(0, 1, "a", nil, "c", nil, "e")
		g.hold(1, 3, "a'", "b", nil)
		done := 0
		rep := g.reboot(2, func() { done++ })
		g.drain()
		if done != 1 || rep.Rejoining() {
			t.Fatalf("done ran %d times; still rejoining: %v", done, rep.Rejoining())
		}
		if rep.Committed() != 3 || rep.LogLen() != 3 {
			t.Fatalf("commit point %d, log length %d; want 3 and 3", rep.Committed(), rep.LogLen())
		}
		if got := g.applied[2]; len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
			t.Fatalf("applied %v, want [a b c]", got)
		}
	})
	t.Run("a rejoined leader re-proposes the tail under fresh acks", func(t *testing.T) {
		g := newRig(1, zeroDelay, 3, 1)
		g.hold(1, 1, "a", "b", "c")
		g.hold(2, 2, "a", "b", "c")
		var committed int
		var held uint64
		rep := g.reboot(0, func() { committed, held = g.reps[0].Committed(), g.reps[0].held(2) })
		g.drain()
		if committed != 2 || held != 1 {
			t.Fatalf("at the install: commit point %d, slot 2 held by %03b; want 2, held by the leader alone", committed, held)
		}
		// One commit broadcast at the install and one when slot 2 commits,
		// one accept for slot 2, each to both followers.
		if rep.accepts.News != 2 || g.accepts != 2 || g.commits != 4 {
			t.Fatalf("leader sent %d accepts (%d delivered) and %d commits; want 2 and 4", rep.accepts.News, g.accepts, g.commits)
		}
		for i, r := range g.reps {
			if r.Committed() != 3 || r.Applied() != 3 {
				t.Fatalf("replica %d committed %d and applied %d slots, want 3 and 3", i, r.Committed(), r.Applied())
			}
		}
		if len(g.applied[0]) != 3 {
			t.Fatalf("the rejoined leader replayed %v", g.applied[0])
		}
	})
	t.Run("a rejoined follower sends no accept and no commit", func(t *testing.T) {
		g := newRig(1, zeroDelay, 3, 1)
		g.hold(0, 2, "a", "b", "c")
		g.hold(1, 1, "a", "b", "c")
		rep := g.reboot(2, nil)
		g.drain()
		if rep.Rejoining() || rep.Committed() != 2 || rep.LogLen() != 3 || len(g.applied[2]) != 2 {
			t.Fatalf("rejoining %v, commit point %d, log length %d, applied %d; want false, 2, 3, 2",
				rep.Rejoining(), rep.Committed(), rep.LogLen(), len(g.applied[2]))
		}
		if rep.accepts.News != 0 || rep.commits.News != 0 || g.accepts != 0 || g.commits != 0 {
			t.Fatalf("the rejoined follower sent %d accepts and %d commits", rep.accepts.News, rep.commits.News)
		}
	})
	t.Run("accept, ack and commit before the install leave the log untouched", func(t *testing.T) {
		g := newRig(1, zeroDelay, 3, 1)
		g.net.Node(g.nodes[1]).Crash() // one answer of the two needed
		rep := g.reboot(2, nil)
		g.reps[0].Propose("a")
		g.sim.Run(2 * time.Second) // the re-ask never ends
		if !rep.Rejoining() {
			t.Fatal("rejoined on one answer with f = 1")
		}
		if g.accepts == 0 {
			t.Fatal("no accept reached the rejoining replica")
		}
		if rep.Handle(g.nodes[1], ackFrom(g.reps[1], 0)) {
			t.Fatal("a rejoining replica consumed an ack")
		}
		m := g.reps[0].commits.Get()
		*m = commit{src: g.reps[0], CommitTo: 1}
		if rep.Handle(g.nodes[0], m) {
			t.Fatal("a rejoining replica consumed a commit")
		}
		if rep.LogLen() != 0 || rep.Committed() != 0 || rep.acks.News != 0 {
			t.Fatalf("log length %d, commit point %d, %d acks sent; want all 0", rep.LogLen(), rep.Committed(), rep.acks.News)
		}
	})
	t.Run("a snapshot of another group is not consumed", func(t *testing.T) {
		g := newRig(1, zeroDelay, 3, 1)
		if g.reps[1].Handle(g.nodes[0], &snapReq{Tag: "other"}) || g.net.Sent != 0 {
			t.Fatalf("a request for another group was consumed; %d messages sent", g.net.Sent)
		}
		rep := g.reboot(2, nil)
		if rep.Handle(g.nodes[0], &snapRep{Tag: "other", Member: 0, Log: []Command{"x"}, CommitTo: 1}) {
			t.Fatal("an answer for another group was consumed")
		}
		g.drain()
		if rep.LogLen() != 0 || rep.Rejoining() {
			t.Fatalf("log length %d, rejoining %v; want the empty group's log, installed", rep.LogLen(), rep.Rejoining())
		}
	})
	t.Run("the re-ask reaches a member that comes back up", func(t *testing.T) {
		g := newRig(1, zeroDelay, 3, 1)
		g.hold(0, 1, "a")
		g.hold(1, 1, "a")
		down := g.net.Node(g.nodes[0])
		down.Crash()
		var at time.Duration
		rep := g.reboot(2, func() { at = g.sim.Now() })
		g.sim.At(1200*time.Millisecond, down.Restart)
		g.drain()
		// The first re-ask after the restart goes out at 1.5 s (plus the
		// nodes' CPU time).
		if at < 1500*time.Millisecond || at > 1501*time.Millisecond || rep.Committed() != 1 {
			t.Fatalf("rejoined at %v with commit point %d; want 1.5s and 1", at, rep.Committed())
		}
		// Replica 1 is asked once. Replica 0 is asked at 0, 0.5 s and 1 s while
		// it is down, and answers the request of 1.5 s.
		if g.net.Sent != 4 || g.net.Dropped != 3 {
			t.Fatalf("%d messages sent and %d dropped; want 4 and 3", g.net.Sent, g.net.Dropped)
		}
	})
}

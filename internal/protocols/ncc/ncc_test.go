package ncc

import (
	"fmt"
	"os"
	"testing"
	"time"

	"tiga/internal/pool"
	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/txn"
)

// TestMain arms pool.Check for every deployment the tests build, the reboot
// tests' included: putting a reply or a record back twice, or into a list it
// did not come from, panics.
func TestMain(m *testing.M) {
	pool.Check = true
	os.Exit(m.Run())
}

func build(t *testing.T, replicated bool, seed int64) (*simnet.Sim, *System) {
	t.Helper()
	sim := simnet.NewSim(seed)
	net := simnet.NewNetwork(sim, simnet.GeoConfig(500*time.Microsecond, 0))
	sys := New(Spec{
		Shards: 2, F: 1, Replicated: replicated, Net: net,
		ServerRegion: simnet.ServerPlacement(3, false),
		CoordRegions: []simnet.Region{0, simnet.RegionHongKong},
		Seed: func(shard int, st *store.Store) {
			for i := 0; i < 8; i++ {
				st.Seed(fmt.Sprintf("n%d-%d", shard, i), txn.EncodeInt(0))
			}
		},
		ExecCost: time.Microsecond,
	})
	sys.Start()
	return sim, sys
}

func tx(i int) *txn.Txn {
	return &txn.Txn{Pieces: txn.ByShard(
		txn.IncrementPiece(fmt.Sprintf("n0-%d", i)).On(0),
		txn.IncrementPiece(fmt.Sprintf("n1-%d", i)).On(1),
	)}
}

func TestCommits(t *testing.T) {
	for _, repl := range []bool{false, true} {
		repl := repl
		name := "NCC"
		if repl {
			name = "NCC+"
		}
		t.Run(name, func(t *testing.T) {
			sim, sys := build(t, repl, 1)
			committed := 0
			for i := 0; i < 8; i++ {
				i := i
				sim.At(time.Duration(50+i*30)*time.Millisecond, func() {
					sys.Submit(i%2, tx(i), func(r txn.Result) {
						if r.OK {
							committed++
						}
					})
				})
			}
			sim.Run(5 * time.Second)
			if committed != 8 {
				t.Fatalf("committed %d of 8", committed)
			}
		})
	}
}

// TestRTCGatesConflicts: a conflicting successor's reply is held until the
// predecessor's commit notification arrives, creating the ~1 WRTT gap
// between conflicting transactions (§5.2's NCC analysis).
func TestRTCGatesConflicts(t *testing.T) {
	sim, sys := build(t, false, 2)
	hot := func() *txn.Txn {
		return &txn.Txn{Pieces: txn.ByShard(txn.IncrementPiece("n0-0").On(0))}
	}
	var lat1, lat2 time.Duration
	// Both from the Hong Kong coordinator (index 1): server round trip is
	// ~200 ms. The second transaction conflicts and is submitted right
	// behind the first, so its reply waits for the first's commit note.
	sim.At(50*time.Millisecond, func() {
		s := sim.Now()
		sys.Submit(1, hot(), func(r txn.Result) { lat1 = sim.Now() - s })
	})
	sim.At(51*time.Millisecond, func() {
		s := sim.Now()
		sys.Submit(1, hot(), func(r txn.Result) { lat2 = sim.Now() - s })
	})
	sim.Run(3 * time.Second)
	if lat1 == 0 || lat2 == 0 {
		t.Fatal("transactions did not commit")
	}
	// lat2 ≈ lat1 + ~1 WRTT (the RTC gap: commit note must travel back).
	if lat2 < lat1+80*time.Millisecond {
		t.Fatalf("RTC gap missing: lat1=%v lat2=%v", lat1, lat2)
	}
	// Non-conflicting transactions are NOT gated.
	var lat3, lat4 time.Duration
	sim.At(2100*time.Millisecond, func() {
		s := sim.Now()
		sys.Submit(1, tx(3), func(r txn.Result) { lat3 = sim.Now() - s })
	})
	sim.At(2101*time.Millisecond, func() {
		s := sim.Now()
		sys.Submit(1, tx(4), func(r txn.Result) { lat4 = sim.Now() - s })
	})
	sim.Run(5 * time.Second)
	if lat4 > lat3+50*time.Millisecond {
		t.Fatalf("non-conflicting transactions gated: lat3=%v lat4=%v", lat3, lat4)
	}
}

// TestNCCPlusPaysReplication: NCC+ replies only after Paxos replication, so
// its latency strictly exceeds plain NCC's from the same coordinator.
func TestNCCPlusPaysReplication(t *testing.T) {
	lat := func(repl bool) time.Duration {
		sim, sys := build(t, repl, 3)
		var l time.Duration
		sim.At(50*time.Millisecond, func() {
			s := sim.Now()
			sys.Submit(0, tx(0), func(r txn.Result) { l = sim.Now() - s })
		})
		sim.Run(3 * time.Second)
		return l
	}
	plain, plus := lat(false), lat(true)
	if plain == 0 || plus == 0 {
		t.Fatal("no commits")
	}
	if plus < plain+80*time.Millisecond {
		t.Fatalf("NCC+ (%v) should pay ~1 WRTT over NCC (%v)", plus, plain)
	}
}

// rtcRig is one plain-NCC shard in South Carolina on a jitter-free WAN, with
// a coordinator beside it (0) and one in Hong Kong (1). It records, for every
// transaction, the commit note during whose handling the server sent its
// reply, how many conflicting predecessors RTC made it wait on, and how many
// commit notes the server handled.
type rtcRig struct {
	sim       *simnet.Sim
	sys       *System
	repliedOn map[txn.ID][]txn.ID
	waitedOn  map[txn.ID]int
	notes     int
}

func newRTCRig() *rtcRig {
	sim := simnet.NewSim(1)
	sys := New(Spec{
		Shards: 1, Net: simnet.NewNetwork(sim, simnet.GeoConfig(0, 0)),
		ServerRegion: simnet.ServerPlacement(3, false),
		CoordRegions: []simnet.Region{simnet.RegionSouthCarolina, simnet.RegionHongKong},
		Seed: func(_ int, st *store.Store) {
			st.Seed("a", txn.EncodeInt(0))
			st.Seed("b", txn.EncodeInt(0))
		},
		ExecCost: time.Microsecond,
	})
	r := &rtcRig{sim: sim, sys: sys, repliedOn: map[txn.ID][]txn.ID{}, waitedOn: map[txn.ID]int{}}
	s := sys.servers[0]
	s.node.SetHandler(func(from simnet.NodeID, msg simnet.Message) {
		sent := map[txn.ID]bool{}
		for id, p := range s.pending {
			sent[id] = p.sent
		}
		s.handle(from, msg)
		n, isNote := msg.(*commitNote)
		if isNote {
			r.notes++
		}
		for id, p := range s.pending {
			if _, seen := sent[id]; !seen {
				r.waitedOn[id] = p.waitingOn
			}
			if isNote && p.sent && !sent[id] {
				r.repliedOn[id] = append(r.repliedOn[id], n.ID)
			}
		}
	})
	return r
}

// submit submits t from coordinator coord at the given time and returns
// where its latency will be written once it commits.
func (r *rtcRig) submit(at time.Duration, coord int, t *txn.Txn) *time.Duration {
	lat := new(time.Duration)
	r.sim.At(at, func() {
		r.sys.Submit(coord, t, func(res txn.Result) {
			if res.OK {
				*lat = r.sim.Now() - at
			}
		})
	})
	return lat
}

// readWrite reads key from and writes its value to key to.
func readWrite(from, to string) *txn.Txn {
	return &txn.Txn{Pieces: txn.ByShard(txn.Piece{
		ReadSet: []string{from}, WriteSet: []string{to},
		Exec: txn.Func(func(kv txn.KV) []byte {
			v := kv.Get(from)
			kv.Put(to, v)
			return v
		}),
	}.On(0))}
}

// TestRTCWaitsOnceOnAPredecessorInBothSets: a piece that conflicts with one
// uncommitted predecessor through its read set and its write set waits on it
// once, so that predecessor's single commit note releases its reply. Counted
// twice, the reply would wait for a second note that never comes.
func TestRTCWaitsOnceOnAPredecessorInBothSets(t *testing.T) {
	r := newRTCRig()
	// t1 reaches the server at 150 ms; its commit note comes back from Hong
	// Kong at 350 ms. t2 increments the same key from next door at 200 ms.
	t1 := &txn.Txn{Pieces: txn.ByShard(txn.IncrementPiece("a").On(0))}
	t2 := &txn.Txn{Pieces: txn.ByShard(txn.IncrementPiece("a").On(0))}
	lat1 := r.submit(50*time.Millisecond, 1, t1)
	lat2 := r.submit(200*time.Millisecond, 0, t2)
	for r.sim.Step() {
	}
	if r.notes == 0 {
		t.Fatal("the server handled no commit note: the rig's filter matches no message")
	}
	if got := r.waitedOn[t2.ID]; got != 1 {
		t.Fatalf("t2 waited on %d predecessors, want 1 (t1, through both sets)", got)
	}
	if got := r.repliedOn[t2.ID]; len(got) != 1 || got[0] != t1.ID {
		t.Fatalf("t2 replied during the commit notes %v, want t1's (%v) alone", got, t1.ID)
	}
	// Recorded: t1 pays a Hong Kong round trip; t2 waits for t1's note.
	if *lat1 != 200002*time.Microsecond || *lat2 != 150254*time.Microsecond {
		t.Fatalf("latencies %v and %v, want 200.002ms and 150.254ms", *lat1, *lat2)
	}
	if got := txn.DecodeInt(r.sys.Store(0).Get("a")); got != 2 {
		t.Fatalf("a = %d, want 2", got)
	}
}

// TestRTCWaitsOnEveryPredecessor: a piece that reads what one uncommitted
// transaction wrote and writes what another wrote waits on both, and replies
// only when the later of their commit notes arrives.
func TestRTCWaitsOnEveryPredecessor(t *testing.T) {
	r := newRTCRig()
	// t1 (Hong Kong) writes a, its commit note reaches the server at 350 ms;
	// t2 (next door) writes b and commits within a millisecond; t3 reads a
	// and writes b, and reaches the server between t2 and t2's commit note.
	t1 := &txn.Txn{Pieces: txn.ByShard(txn.IncrementPiece("a").On(0))}
	t2 := &txn.Txn{Pieces: txn.ByShard(txn.IncrementPiece("b").On(0))}
	t3 := readWrite("a", "b")
	lat1 := r.submit(50*time.Millisecond, 1, t1)
	lat2 := r.submit(200*time.Millisecond, 0, t2)
	lat3 := r.submit(200*time.Millisecond+100*time.Microsecond, 0, t3)
	for r.sim.Step() {
	}
	if r.notes == 0 {
		t.Fatal("the server handled no commit note: the rig's filter matches no message")
	}
	if got := r.waitedOn[t3.ID]; got != 2 {
		t.Fatalf("t3 waited on %d predecessors, want 2 (t1 through its read set, t2 through its write set)", got)
	}
	if got := r.repliedOn[t3.ID]; len(got) != 1 || got[0] != t1.ID {
		t.Fatalf("t3 replied during the commit notes %v, want t1's (%v), the later one", got, t1.ID)
	}
	if *lat1 != 200002*time.Microsecond || *lat2 != 502*time.Microsecond || *lat3 != 150154*time.Microsecond {
		t.Fatalf("latencies %v, %v and %v, want 200.002ms, 502µs and 150.154ms", *lat1, *lat2, *lat3)
	}
	if got := txn.DecodeInt(r.sys.Store(0).Get("b")); got != 1 {
		t.Fatalf("b = %d, want 1 (t3 copied a's 1 over t2's 1)", got)
	}
}

// TestMessagesComeHome drains a lossless contended run of NCC, of NCC+, and
// of NCC+ whose shard-0 server reboots once everything before it committed:
// three coordinators submit increments over a few hot keys, so RTC holds some
// replies. The coordinators scribble over each reply once they have handled
// it. Every reply was delivered, so every one is back on the list of the
// server that sent it — the rebooted server's replayed replies too, which
// reach coordinators that completed long ago — and every coordinator record
// is back on its coordinator's list. Each committed increment reports the
// value it wrote, so on every key the values reported are 1 to its commit
// count, each once.
func TestMessagesComeHome(t *testing.T) {
	for _, c := range []struct {
		name               string
		replicated, reboot bool
	}{{"NCC", false, false}, {"NCC+", true, false}, {"NCC+/reboot", true, true}} {
		t.Run(c.name, func(t *testing.T) {
			sim := simnet.NewSim(9)
			sys := New(Spec{
				Shards: 2, F: 1, Replicated: c.replicated,
				Net:          simnet.NewNetwork(sim, simnet.GeoConfig(500*time.Microsecond, 0)),
				ServerRegion: simnet.ServerPlacement(3, false),
				CoordRegions: []simnet.Region{0, 1, simnet.RegionHongKong},
				Seed: func(shard int, st *store.Store) {
					for i := 0; i < 3; i++ {
						st.Seed(fmt.Sprintf("n%d-%d", shard, i), txn.EncodeInt(0))
					}
				},
				ExecCost: time.Microsecond,
			})
			// Scribble over every reply the coordinator has put back, the way
			// its server's next reply would: a field read after the Put reads
			// garbage.
			for _, co := range sys.coords {
				co.node.SetHandler(func(from simnet.NodeID, msg simnet.Message) {
					co.handle(from, msg)
					if m, ok := msg.(*execRep); ok {
						*m = execRep{src: m.src, ID: txn.ID{Coord: -1}, Ret: txn.EncodeInt(-1)}
					}
				})
			}
			const n = 60
			committed := 0
			reported := make([][2]map[int64]int, 3)
			for i := 0; i < n; i++ {
				sim.At(time.Duration(50+2*i)*time.Millisecond, func() {
					k := i % 3
					tx := &txn.Txn{Pieces: txn.ByShard(
						txn.IncrementPiece(fmt.Sprintf("n0-%d", k)).On(0),
						txn.IncrementPiece(fmt.Sprintf("n1-%d", k)).On(1),
					)}
					sys.Submit(i%3, tx, func(r txn.Result) {
						if !r.OK {
							return
						}
						committed++
						for _, out := range r.PerShard {
							if reported[k][out.Shard] == nil {
								reported[k][out.Shard] = map[int64]int{}
							}
							reported[k][out.Shard][txn.DecodeInt(out.Ret)]++
						}
					})
				})
			}
			for sim.Step() {
			}
			servers := append([]*server(nil), sys.servers...)
			if c.reboot {
				sys.KillServer(0, 0)
				sys.RestartServer(0, 0)
				for sim.Step() {
				}
				servers = append(servers, sys.servers[0])
			}
			if committed != n {
				t.Fatalf("%d of %d committed", committed, n)
			}
			for k, shards := range reported {
				for sh, vals := range shards {
					want := txn.DecodeInt(sys.Store(sh).Get(fmt.Sprintf("n%d-%d", sh, k)))
					for v := int64(1); v <= want; v++ {
						if vals[v] != 1 {
							t.Errorf("n%d-%d: value %d reported %d times", sh, k, v, vals[v])
						}
					}
					if len(vals) != int(want) {
						t.Errorf("n%d-%d: %d values reported for %d commits", sh, k, len(vals), want)
					}
				}
			}
			for i, s := range servers {
				if s.reps.News == 0 || s.reps.News != s.reps.Idle() {
					t.Errorf("server %d (shard %d): %d replies allocated, %d back", i, s.shard, s.reps.News, s.reps.Idle())
				}
			}
			for i, co := range sys.coords {
				if co.tab.News() != co.tab.Idle() || co.tab.InFlight() != 0 {
					t.Errorf("coordinator %d: %d records allocated, %d back, %d in flight", i, co.tab.News(), co.tab.Idle(), co.tab.InFlight())
				}
			}
		})
	}
}

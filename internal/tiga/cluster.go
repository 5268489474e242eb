package tiga

import (
	"tiga/internal/clocks"
	"tiga/internal/pool"
	"tiga/internal/simnet"
	"tiga/internal/store"
	"tiga/internal/txn"
)

// Placement decides where servers and coordinators live. The paper's default
// places replica r of every shard in region r (leaders co-located); the
// "rotation" experiment (§5.5, Table 2) offsets the replica column per shard
// so leaders land in different regions (simnet.ServerPlacement).
type Placement struct {
	// ServerRegion maps (shard, replica) to a region.
	ServerRegion func(shard, replica int) simnet.Region
	// CoordRegions lists one region per coordinator.
	CoordRegions []simnet.Region
}

// serverRegions is the paper's server-region count (§5.1): ColocatedPlacement
// spreads replicas over regions 0..2, and the view manager keeps one replica
// in each.
const serverRegions = 3

// ColocatedPlacement is the paper's common full-replication deployment:
// replica r of every shard lives in region r mod 3.
func ColocatedPlacement(coordRegions []simnet.Region) Placement {
	return Placement{ServerRegion: simnet.ServerPlacement(serverRegions, false), CoordRegions: coordRegions}
}

// RotatedPlacement rotates shard/replica ids so servers with the same
// replica-id land in different regions — the §5.5 "leaders separated" setup.
func RotatedPlacement(coordRegions []simnet.Region, regions int) Placement {
	return Placement{ServerRegion: simnet.ServerPlacement(regions, true), CoordRegions: coordRegions}
}

// Cluster is a complete Tiga deployment inside one simulated network.
type Cluster struct {
	Cfg Config
	Net *simnet.Network
	// Seed pre-populates a shard's store, at start-up and whenever recovery
	// rebuilds one by replay (newStore).
	Seed func(shard int, st *store.Store)

	Servers [][]*Server // [shard][replica]
	Coords  []*Coordinator
	VMs     []*vmReplica

	serverNodes [][]simnet.NodeID
	coordNodes  []simnet.NodeID
	vmNodes     []simnet.NodeID

	// msgs are the cluster-wide wire-message freelists (see config.go). They
	// are shared by every node of this cluster but only ever touched from the
	// owning simulation's single-threaded event loop.
	msgs *msgPools
	// agreements recycles the leaders' §3.5 agreement objects (agreement in
	// server.go), under the same single-threaded discipline.
	agreements *pool.Free[agreement]

	initial globalView // every node's view at start: view 0, replica 0 leads
}

// NewCluster builds the full deployment: m×(2f+1) servers, the given
// coordinators, and 3 view-manager replicas, each with its own clock.
func NewCluster(net *simnet.Network, cfg Config, pl Placement, cf *clocks.Factory,
	seed func(int, *store.Store)) *Cluster {

	c := &Cluster{Cfg: cfg, Net: net, Seed: seed, initial: globalView{GVec: make([]int, cfg.Shards)},
		msgs: newMsgPools(), agreements: pool.New[agreement]()}

	c.serverNodes = make([][]simnet.NodeID, cfg.Shards)
	for s := range c.serverNodes {
		c.serverNodes[s] = make([]simnet.NodeID, cfg.Replicas())
		for r := range c.serverNodes[s] {
			c.serverNodes[s][r] = net.AddNode(pl.ServerRegion(s, r), nil).ID()
		}
	}
	// Mode selection (§3.8) over the initial leaders, replica 0 of each shard.
	c.initial.GMode = c.chooseMode(make([]int, cfg.Shards))

	c.Servers = make([][]*Server, cfg.Shards)
	for s := range c.Servers {
		c.Servers[s] = make([]*Server, cfg.Replicas())
		for r := range c.Servers[s] {
			c.Servers[s][r] = newServer(c, s, r, net.Node(c.serverNodes[s][r]), cf.New(), c.newStore(s))
		}
	}
	for i, reg := range pl.CoordRegions {
		node := net.AddNode(reg, nil)
		c.coordNodes = append(c.coordNodes, node.ID())
		c.Coords = append(c.Coords, newCoordinator(c, int32(i+1), node, cf.New()))
	}
	for i := range serverRegions {
		node := net.AddNode(simnet.Region(i), nil)
		c.vmNodes = append(c.vmNodes, node.ID())
		c.VMs = append(c.VMs, newVMReplica(c, i, node))
	}
	return c
}

// newStore builds a shard's seeded store, version-retaining when local reads
// are on. It is the only store constructor: the stores servers start with and
// the ones recovery replays into (installLog) must be configured alike.
// EnableSnapshots comes before the seed on purpose: a store that retains
// history when the generator attaches it (store.Attach) shares the shard's
// seed versions with its sibling replicas instead of filling a slab of its own.
func (c *Cluster) newStore(shard int) *store.Store {
	st := store.New()
	if c.Cfg.LocalReads {
		st.EnableSnapshots()
	}
	if c.Seed != nil {
		c.Seed(shard, st)
	}
	return st
}

// chooseMode computes the agreement mode for a leader set (§3.8, view manager
// step 1): preventive iff the leaders are mutually within the co-location
// threshold, unless the configuration forces a mode.
func (c *Cluster) chooseMode(newLeaders []int) Mode {
	switch c.Cfg.Mode {
	case ModePreventive, ModeDetective:
		return c.Cfg.Mode
	}
	for a := 0; a < c.Cfg.Shards; a++ {
		for b := a + 1; b < c.Cfg.Shards; b++ {
			ra := c.Net.Node(c.serverNodes[a][newLeaders[a]]).Region()
			rb := c.Net.Node(c.serverNodes[b][newLeaders[b]]).Region()
			if c.Net.BaseOWD(ra, rb) > c.Cfg.ColocationThreshold {
				return ModeDetective
			}
		}
	}
	return ModePreventive
}

// Start launches all periodic tasks. Call once before running the simulator.
func (c *Cluster) Start() {
	for _, shard := range c.Servers {
		for _, s := range shard {
			s.start()
		}
	}
	for _, co := range c.Coords {
		co.start()
	}
	for _, v := range c.VMs {
		v.start()
	}
}

func (c *Cluster) serverNode(shard, replica int) simnet.NodeID { return c.serverNodes[shard][replica] }

// coordNode maps a txn.ID.Coord (1-based) to its network node.
func (c *Cluster) coordNode(idx int32) simnet.NodeID { return c.coordNodes[idx-1] }

func (c *Cluster) vmLeaderNode() simnet.NodeID { return c.vmNodes[0] }

// Leader returns the current leader server of a shard according to the VM.
func (c *Cluster) Leader(shard int) *Server {
	return c.Servers[shard][c.VMs[0].view.GVec[shard]%c.Cfg.Replicas()]
}

// ServerGrid reports the replica grid (protocol.Faultable).
func (c *Cluster) ServerGrid() (shards, replicas int) { return c.Cfg.Shards, c.Cfg.Replicas() }

// KillServer crashes a server (it drops all messages and timers).
func (c *Cluster) KillServer(shard, replica int) {
	c.Servers[shard][replica].node.Crash()
}

// RestartServer reboots a crashed server with empty state; it rejoins via
// Algorithm 6 (view inquiry + state transfer).
func (c *Cluster) RestartServer(shard, replica int) {
	s := c.Servers[shard][replica]
	s.node.Restart()
	// The store stays empty while the server is recovering (it serves
	// nothing); the rejoin's installLog replays the log into a seeded one.
	fresh := newServer(c, shard, replica, s.node, s.clock, store.New())
	c.Servers[shard][replica] = fresh
	fresh.start()
	fresh.Rejoin()
}

// TotalRollbacks sums Case-3 revocations across all servers (Fig 13).
func (c *Cluster) TotalRollbacks() int64 {
	var n int64
	for _, shard := range c.Servers {
		for _, s := range shard {
			n += s.Rollbacks
		}
	}
	return n
}

// TotalVersions sums retained committed-version counts across every replica
// store in the cluster — the version-GC tests' memory signal (leaders prune
// on the safe-time tick, followers at watermark adoption, so the total is
// what must plateau under sustained writes).
func (c *Cluster) TotalVersions() int {
	var n int
	for _, shard := range c.Servers {
		for _, s := range shard {
			n += s.st.Versions()
		}
	}
	return n
}

// Mode returns the currently active agreement mode.
func (c *Cluster) Mode() Mode { return c.initial.GMode }

// Submit routes a transaction through the given coordinator (harness
// interface shared with the baseline protocols).
func (c *Cluster) Submit(coord int, t *txn.Txn, done func(txn.Result)) {
	c.Coords[coord].Submit(t, done)
}

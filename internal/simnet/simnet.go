// Package simnet provides a deterministic discrete-event network simulator.
//
// It substitutes for the paper's Google Cloud geo-distributed testbed: nodes
// are placed in regions, messages between regions experience configurable
// one-way delays (OWDs) with jitter and loss, and each node is modeled as a
// single-server queue so that per-message CPU cost translates into throughput
// limits. All randomness flows from one seeded source, so every run is
// reproducible.
package simnet

import (
	"math/rand"
	"time"
)

// NodeID identifies a node in the simulated network.
type NodeID int

// Region identifies a geographic region (datacenter).
type Region int

// Message is an opaque payload delivered between nodes. Protocols define
// their own message structs; the simulator never inspects them.
type Message any

// Handler processes a message delivered to a node.
type Handler func(from NodeID, msg Message)

// Sim is the discrete-event simulation core: a virtual clock plus an ordered
// event queue. Events scheduled for the same instant run in scheduling order,
// which keeps runs deterministic. The queue is a specialized 4-ary heap of
// tagged event structs (see queue.go): the hot-path cases — message delivery,
// node timers, deferred CPU starts — schedule and dispatch without allocating
// a closure or boxing through an interface.
type Sim struct {
	now time.Duration
	q   eventQueue
	seq uint64
	rng *rand.Rand
}

// NewSim returns a simulator whose randomness is derived from seed.
func NewSim(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// schedule stamps e with the clamped fire time and the next global sequence
// number and pushes it. Every scheduling path funnels through here, so seq
// assignment — and with it the order of same-instant events — is exactly the
// scheduling order.
func (s *Sim) schedule(t time.Duration, e event) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	e.at = t
	e.seq = s.seq
	s.q.push(e)
}

// At schedules fn to run at virtual time t. Times in the past run "now".
func (s *Sim) At(t time.Duration, fn func()) {
	s.schedule(t, event{kind: evFunc, fn: fn})
}

// After schedules fn to run d from now.
func (s *Sim) After(d time.Duration, fn func()) { s.At(s.now+d, fn) }

// Step runs the next pending event. It reports false when the queue is empty.
func (s *Sim) Step() bool {
	if s.q.len() == 0 {
		return false
	}
	e := s.q.pop()
	s.now = e.at
	s.dispatch(&e)
	return true
}

// dispatch fires one event by kind. Events that reached a crashed node (or a
// node that crashed and restarted since they were scheduled — the epoch
// check) are silently dropped, matching the delivery and timer contracts.
// A delivery or timer whose node's CPU is busy waits as an evStart (waits);
// the rest run their node work here, if the gate is live. The gate is checked
// only when the work is about to run: a superseded timer still books the CPU
// exactly like a timer whose callback no-ops.
func (s *Sim) dispatch(e *event) {
	nd := e.node
	switch e.kind {
	case evFunc:
		e.fn()
		return
	case evDeliver:
		if nd.down || nd.handler == nil || s.waits(e) {
			return
		}
	case evTimer:
		if nd.down || nd.epoch != e.epoch || s.waits(e) {
			return
		}
	case evStart:
		if nd.down || nd.epoch != e.epoch {
			return
		}
	}
	if e.gate != nil && *e.gate != e.gseq {
		return
	}
	if e.fn != nil {
		e.fn()
	} else {
		nd.handler(NodeID(e.from), e.msg)
	}
}

// waits books e's node's CPU and reports whether e has to wait for it, in
// which case e is re-scheduled as an evStart for when the CPU frees up.
func (s *Sim) waits(e *event) bool {
	nd := e.node
	at := nd.book(s.now)
	if at == s.now {
		return false
	}
	e.kind, e.epoch = evStart, nd.epoch
	s.schedule(at, *e)
	return true
}

// Run executes events until virtual time passes `until` or the queue drains.
func (s *Sim) Run(until time.Duration) {
	for s.q.len() > 0 && s.q.min() <= until {
		s.Step()
	}
	if s.now < until {
		s.now = until
	}
}

// Latency describes the one-way delay distribution of a link.
type Latency struct {
	Base   time.Duration // median one-way delay
	Jitter time.Duration // uniform jitter in [0, Jitter)
}

func (l Latency) sample(rng *rand.Rand) time.Duration {
	if l.Jitter <= 0 {
		return l.Base
	}
	return l.Base + time.Duration(rng.Int63n(int64(l.Jitter)))
}

// Config describes the simulated WAN topology.
type Config struct {
	// OWD[a][b] is the one-way delay from region a to region b.
	OWD [][]Latency
	// LossRate is the probability a message is silently dropped.
	LossRate float64
	// DefaultCost is the CPU service time charged per delivered message in
	// addition to any explicit Work calls by the handler.
	DefaultCost time.Duration
}

// LinkFault is a runtime degradation installed on one directed region link:
// extra one-way delay (with its own jitter) and extra loss probability, on
// top of whatever the topology configured at build time. The chaos layer
// installs and removes these mid-run (DegradeLink / RestoreLink).
type LinkFault struct {
	Extra Latency // added to every sampled one-way delay
	Loss  float64 // additional drop probability on this link
}

// Network delivers messages between nodes placed in regions.
type Network struct {
	sim     *Sim
	cfg     Config
	nodes   []*Node
	blocked map[[2]NodeID]bool
	// partitioned blocks directed region pairs (chaos partitions). Faults
	// and partitions are looked up per send but consume no randomness while
	// absent, so a run without chaos is byte-identical to one built on a
	// network that never heard of either map.
	partitioned map[[2]Region]bool
	faults      map[[2]Region]LinkFault
	// Stats
	Sent    int64
	Dropped int64
}

// NewNetwork creates a network on top of sim.
func NewNetwork(sim *Sim, cfg Config) *Network {
	if cfg.DefaultCost <= 0 {
		cfg.DefaultCost = time.Microsecond
	}
	return &Network{sim: sim, cfg: cfg, blocked: make(map[[2]NodeID]bool),
		partitioned: make(map[[2]Region]bool), faults: make(map[[2]Region]LinkFault)}
}

// Sim returns the underlying simulator.
func (n *Network) Sim() *Sim { return n.sim }

// AddNode registers a node in a region with a message handler and returns it.
// The handler may be nil and installed later with SetHandler.
func (n *Network) AddNode(region Region, h Handler) *Node {
	nd := &Node{id: NodeID(len(n.nodes)), region: region, net: n, handler: h, cost: n.cfg.DefaultCost}
	n.nodes = append(n.nodes, nd)
	return nd
}

// Node returns the node with the given id.
func (n *Network) Node(id NodeID) *Node { return n.nodes[id] }

// BlockPair drops all traffic between a and b (both directions) until
// UnblockPair is called; it models a network partition between two nodes.
func (n *Network) BlockPair(a, b NodeID) {
	n.blocked[[2]NodeID{a, b}] = true
	n.blocked[[2]NodeID{b, a}] = true
}

// UnblockPair restores traffic between a and b.
func (n *Network) UnblockPair(a, b NodeID) {
	delete(n.blocked, [2]NodeID{a, b})
	delete(n.blocked, [2]NodeID{b, a})
}

// Isolate blocks traffic between node a and every other node.
func (n *Network) Isolate(a NodeID) {
	for _, nd := range n.nodes {
		if nd.id != a {
			n.BlockPair(a, nd.id)
		}
	}
}

// Heal removes all pairwise blocks involving node a.
func (n *Network) Heal(a NodeID) {
	for _, nd := range n.nodes {
		if nd.id != a {
			n.UnblockPair(a, nd.id)
		}
	}
}

// PartitionRegions cuts all traffic between region set a and region set b
// (both directions): messages crossing the cut are silently dropped, exactly
// as if the WAN link failed. Intra-set traffic is unaffected. The partition
// holds until HealRegions removes it.
func (n *Network) PartitionRegions(a, b []Region) {
	for _, ra := range a {
		for _, rb := range b {
			n.partitioned[[2]Region{ra, rb}] = true
			n.partitioned[[2]Region{rb, ra}] = true
		}
	}
}

// HealRegions removes the partition between region set a and region set b.
func (n *Network) HealRegions(a, b []Region) {
	for _, ra := range a {
		for _, rb := range b {
			delete(n.partitioned, [2]Region{ra, rb})
			delete(n.partitioned, [2]Region{rb, ra})
		}
	}
}

// Partitioned reports whether traffic from region a to region b is currently
// cut by a partition.
func (n *Network) Partitioned(a, b Region) bool {
	return n.partitioned[[2]Region{a, b}]
}

// DegradeLink installs a runtime fault on the region link a<->b (both
// directions): every message crossing it pays the extra sampled delay and is
// additionally dropped with the fault's loss probability. Installing a new
// fault on a degraded link replaces the previous fault.
func (n *Network) DegradeLink(a, b Region, f LinkFault) {
	n.faults[[2]Region{a, b}] = f
	n.faults[[2]Region{b, a}] = f
}

// RestoreLink removes any runtime fault from the region link a<->b.
func (n *Network) RestoreLink(a, b Region) {
	delete(n.faults, [2]Region{a, b})
	delete(n.faults, [2]Region{b, a})
}

// BaseOWD returns the configured median one-way delay between two regions.
func (n *Network) BaseOWD(a, b Region) time.Duration { return n.cfg.OWD[a][b].Base }

// Send delivers msg from -> to after the link's sampled one-way delay.
// Messages depart no earlier than the sender finishes its current CPU work.
func (n *Network) Send(from, to NodeID, msg Message) {
	src, dst := n.nodes[from], n.nodes[to]
	if src.down || dst.down || n.blocked[[2]NodeID{from, to}] ||
		n.partitioned[[2]Region{src.region, dst.region}] {
		n.Dropped++
		return
	}
	if n.cfg.LossRate > 0 && n.sim.rng.Float64() < n.cfg.LossRate {
		n.Dropped++
		return
	}
	// Runtime link faults draw from the rng only while installed, so a run
	// that never degrades a link consumes the exact same random stream as
	// one on a fault-free network.
	fault, faulty := n.faults[[2]Region{src.region, dst.region}]
	if faulty && fault.Loss > 0 && n.sim.rng.Float64() < fault.Loss {
		n.Dropped++
		return
	}
	n.Sent++
	depart := n.sim.now
	if src.busyUntil > depart {
		depart = src.busyUntil
	}
	arrive := depart + n.cfg.OWD[src.region][dst.region].sample(n.sim.rng)
	if faulty {
		arrive += fault.Extra.sample(n.sim.rng)
	}
	n.sim.schedule(arrive, event{kind: evDeliver, node: dst, from: int32(from), msg: msg})
}

// Node is a simulated machine: it has a region, a message handler, and a
// single-server CPU queue. Delivered messages and timers are serviced in
// order; each charges at least the node's per-message cost, and handlers can
// charge extra via Work.
type Node struct {
	id        NodeID
	region    Region
	net       *Network
	handler   Handler
	cost      time.Duration
	busyUntil time.Duration
	down      bool
	epoch     int32 // incremented on crash to cancel in-flight timers
}

// ID returns the node's network identifier.
func (nd *Node) ID() NodeID { return nd.id }

// Region returns the node's region.
func (nd *Node) Region() Region { return nd.region }

// SetHandler installs the message handler (for construction cycles).
func (nd *Node) SetHandler(h Handler) { nd.handler = h }

// Crash stops the node: all queued and future deliveries and timers are
// dropped until Restart.
func (nd *Node) Crash() {
	nd.down = true
	nd.epoch++
}

// Restart brings a crashed node back (protocol-level recovery is up to the
// protocol; the simulator only resumes delivery).
func (nd *Node) Restart() {
	nd.down = false
	nd.epoch++
	nd.busyUntil = nd.net.sim.now
}

// Work charges d of CPU time to the node, delaying subsequent message
// processing and the departure of messages sent later in this handler.
func (nd *Node) Work(d time.Duration) { nd.busyUntil += d }

// Busy returns the time until which the node's CPU is occupied.
func (nd *Node) Busy() time.Duration { return nd.busyUntil }

// Send sends a message from this node.
func (nd *Node) Send(to NodeID, msg Message) { nd.net.Send(nd.id, to, msg) }

// After schedules fn to run on this node's CPU after d. The timer dies if the
// node crashes before it fires.
func (nd *Node) After(d time.Duration, fn func()) { nd.AfterGate(d, nil, 0, fn) }

// AfterGate schedules fn to run on this node's CPU after d, but only if
// *gate still equals seq when fn is about to execute; a nil gate is always
// live. A caller that re-arms a deadline bumps the gate to invalidate every
// earlier pending arm, so a single long-lived closure serves all arms instead
// of one capturing closure per arm — the pattern behind Tiga's pump and
// safe-flush timers.
func (nd *Node) AfterGate(d time.Duration, gate *uint64, seq uint64, fn func()) {
	sim := nd.net.sim
	sim.schedule(sim.now+d, event{kind: evTimer, node: nd, fn: fn, epoch: nd.epoch, gate: gate, gseq: seq})
}

// Every schedules fn to run every interval until the node crashes or fn
// returns false. The CPU-queue wrapper is hoisted out of the tick so a
// long-running loop allocates nothing per firing; `cont` is reset before each
// run because a deferred execution (busy CPU) reports through the same cell.
func (nd *Node) Every(interval time.Duration, fn func() bool) {
	epoch := nd.epoch
	cont := true
	run := func() { cont = fn() }
	var tick func()
	tick = func() {
		if nd.down || nd.epoch != epoch {
			return
		}
		cont = true
		// A tick runs fn as a node timer firing now.
		nd.net.sim.dispatch(&event{kind: evTimer, node: nd, fn: run, epoch: epoch})
		if cont {
			nd.net.sim.After(interval, tick)
		}
	}
	nd.net.sim.After(interval, tick)
}

// book reserves the node's single-server CPU for one unit of the per-message
// cost and returns when the reserved work starts: now when the CPU is free,
// else once it frees up. It is the only place the CPU is reserved.
func (nd *Node) book(now time.Duration) time.Duration {
	start := max(now, nd.busyUntil)
	nd.busyUntil = start + nd.cost
	return start
}

// SymmetricOWD builds an OWD matrix from a symmetric distance table expressed
// as one-way delays, applying the same jitter to every link.
func SymmetricOWD(owd [][]time.Duration, jitter time.Duration) [][]Latency {
	n := len(owd)
	m := make([][]Latency, n)
	for i := range m {
		m[i] = make([]Latency, n)
		for j := range m[i] {
			m[i][j] = Latency{Base: owd[i][j], Jitter: jitter}
		}
	}
	return m
}

package tiga

import (
	"time"

	"tiga/internal/simnet"
)

// vmReplica is one replica of the view manager (§4, Algorithm 4): a small
// replicated state machine holding <g-view, g-vec, g-mode>. It detects leader
// failures via heartbeats and drives global view changes. It is off the
// critical path of transaction processing.
type vmReplica struct {
	cluster *Cluster
	node    *simnet.Node
	rid     int

	vview int // view of the VM's own replication group (static here)

	view  globalView
	prep  globalView // the view being prepared (committed once prepQ has f+1)
	prepQ map[int]bool

	lastHB   map[[2]int]time.Duration
	inflight bool
}

func newVMReplica(c *Cluster, rid int, node *simnet.Node) *vmReplica {
	v := &vmReplica{
		cluster: c, node: node, rid: rid,
		view:   c.initial.copy(),
		lastHB: make(map[[2]int]time.Duration),
	}
	node.SetHandler(v.handle)
	return v
}

func (v *vmReplica) start() {
	if v.rid != 0 {
		return
	}
	now := v.cluster.Net.Sim().Now()
	for s := 0; s < v.cluster.Cfg.Shards; s++ {
		for r := 0; r < v.cluster.Cfg.Replicas(); r++ {
			v.lastHB[[2]int{s, r}] = now
		}
	}
	v.node.Every(heartbeatEvery, func() bool {
		v.checkFailures()
		return true
	})
}

func (v *vmReplica) handle(from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case heartbeatMsg:
		v.lastHB[[2]int{m.Shard, m.Replica}] = v.cluster.Net.Sim().Now()
	case vmInquire:
		v.node.Send(m.From, vmInfo{v.view.copy()})
	case cmPrepare:
		v.onPrepare(from, m)
	case cmPrepareReply:
		v.onPrepareReply(m)
	case cmCommit:
		v.onCommit(m)
	}
}

func (v *vmReplica) alive(shard, rep int) bool {
	now := v.cluster.Net.Sim().Now()
	return now-v.lastHB[[2]int{shard, rep}] <= heartbeatTimeout
}

// checkFailures launches a view change when any current leader stops
// heartbeating (Algorithm 4).
func (v *vmReplica) checkFailures() {
	if v.inflight {
		return
	}
	n := v.cluster.Cfg.Replicas()
	failed := false
	for s := 0; s < v.cluster.Cfg.Shards; s++ {
		if !v.alive(s, v.view.GVec[s]%n) {
			failed = true
			break
		}
	}
	if !failed {
		return
	}
	newLeaders := v.findNewLeaders()
	v.prep = globalView{GView: v.view.GView + 1, GVec: make([]int, len(v.view.GVec))}
	for s := range v.view.GVec {
		rOld := v.view.GVec[s] % n
		rNew := newLeaders[s]
		v.prep.GVec[s] = v.view.GVec[s] + ((rNew-rOld)%n+n)%n
		if rNew != rOld && v.prep.GVec[s] == v.view.GVec[s] {
			v.prep.GVec[s] += n
		}
	}
	v.prep.GMode = v.cluster.chooseMode(newLeaders)
	v.prepQ = map[int]bool{v.rid: true}
	v.inflight = true
	// Guard against a stalled change (lost prepares).
	v.node.After(4*heartbeatTimeout, func() { v.inflight = false })
	for _, nd := range v.cluster.vmNodes {
		if nd != v.node.ID() {
			v.node.Send(nd, cmPrepare{VView: v.vview, globalView: v.prep.copy()})
		}
	}
}

// findNewLeaders picks one leader per shard, preferring a single replica
// column whose servers are all alive (co-located leaders, Algorithm 4
// find-new-leaders), else the column with the most alive servers.
func (v *vmReplica) findNewLeaders() []int {
	m, n := v.cluster.Cfg.Shards, v.cluster.Cfg.Replicas()
	for r := 0; r < n; r++ {
		all := true
		for s := 0; s < m; s++ {
			if !v.alive(s, r) {
				all = false
				break
			}
		}
		if all {
			out := make([]int, m)
			for s := range out {
				out[s] = r
			}
			return out
		}
	}
	best, bestCnt := 0, -1
	for r := 0; r < n; r++ {
		cnt := 0
		for s := 0; s < m; s++ {
			if v.alive(s, r) {
				cnt++
			}
		}
		if cnt > bestCnt {
			best, bestCnt = r, cnt
		}
	}
	out := make([]int, m)
	for s := 0; s < m; s++ {
		if v.alive(s, best) {
			out[s] = best
			continue
		}
		for r := 0; r < n; r++ {
			if v.alive(s, r) {
				out[s] = r
				break
			}
		}
	}
	return out
}

func (v *vmReplica) onPrepare(from simnet.NodeID, m cmPrepare) {
	if m.VView != v.vview {
		return
	}
	v.prep = m.globalView.copy()
	v.node.Send(from, cmPrepareReply{VView: v.vview, VRid: v.rid, PGView: m.GView})
}

func (v *vmReplica) onPrepareReply(m cmPrepareReply) {
	if m.VView != v.vview || m.PGView != v.prep.GView || v.prepQ == nil {
		return
	}
	v.prepQ[m.VRid] = true
	if len(v.prepQ) < 2 || v.prep.GView <= v.view.GView { // f+1 of 3 VM replicas
		return
	}
	v.view = v.prep.copy()
	v.inflight = false
	// Commit at VM followers and broadcast the new view to every server and
	// coordinator.
	for _, nd := range v.cluster.vmNodes {
		if nd != v.node.ID() {
			v.node.Send(nd, cmCommit{VView: v.vview, globalView: v.view.copy()})
		}
	}
	req := viewChangeReq{v.view.copy()}
	for s := 0; s < v.cluster.Cfg.Shards; s++ {
		for r := 0; r < v.cluster.Cfg.Replicas(); r++ {
			v.node.Send(v.cluster.serverNode(s, r), req)
		}
	}
	for _, nd := range v.cluster.coordNodes {
		v.node.Send(nd, req)
	}
}

func (v *vmReplica) onCommit(m cmCommit) {
	if m.VView != v.vview || m.GView <= v.view.GView {
		return
	}
	v.view = m.globalView.copy()
}

package main

import (
	"time"

	"tiga/internal/protocol"
	"tiga/internal/simnet"
	"tiga/internal/txn"
)

// nullProtocol is the benchmark's own registered protocol: every Submit
// completes, committed, after one fixed simulated delay, with no servers, no
// messages and no store. Driving it through harness.RunLoad leaves only the
// load driver (generator, envelopes, metrics recording) and one simulator
// event per transaction on the clock, which is what the harness.closed_* and
// harness.open_* rows report.
const nullProtocol = "bench-null"

const nullDelay = 10 * time.Millisecond

type nullSys struct {
	sim    *simnet.Sim
	coords int
	free   []*nullCall
}

// nullCall carries one completion callback through the simulator. The calls
// are recycled and their fire closure is bound once, so the null protocol
// itself allocates nothing per transaction in steady state.
type nullCall struct {
	sys  *nullSys
	done func(txn.Result)
	fire func()
}

func (c *nullCall) complete() {
	done := c.done
	c.done = nil
	c.sys.free = append(c.sys.free, c)
	done(txn.Result{OK: true, FastPath: true})
}

func (s *nullSys) Submit(coord int, t *txn.Txn, done func(txn.Result)) {
	var c *nullCall
	if n := len(s.free); n > 0 {
		c = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		c = &nullCall{sys: s}
		c.fire = c.complete
	}
	c.done = done
	s.sim.After(nullDelay, c.fire)
}

func (s *nullSys) NumCoords() int { return s.coords }

func (s *nullSys) Start() {}

func init() {
	// Rank 1000 sorts it after every real protocol in protocol.Names().
	protocol.Register(nullProtocol, protocol.CostProfile{Exec: 1, Rank: 1000}, nil,
		func(ctx *protocol.BuildContext) protocol.System {
			return &nullSys{sim: ctx.Net.Sim(), coords: len(ctx.CoordRegions)}
		})
}

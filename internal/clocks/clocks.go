// Package clocks models synchronized physical clocks with configurable error.
//
// Tiga "depends on clock synchronization for performance but not for
// correctness" (Liskov), so the protocol consumes only a Clock interface.
// This package provides error models matching the paper's §5.7 ablation:
// Huygens (~12 µs), chrony (~4.54 ms), ntpd (~16.45 ms), and an unstable
// "bad clock" (~62.55 ms).
package clocks

import (
	"math/rand"
	"time"
)

// Clock maps simulated (true) time to a node's local clock reading.
// Implementations must be monotonically non-decreasing in simNow.
type Clock interface {
	// Read returns the local clock value at true time simNow.
	Read(simNow time.Duration) time.Duration
	// WhenReads returns the earliest true time >= simNow at which Read
	// will return at least target. It is used to set hold timers for
	// transactions waiting on their future timestamps.
	WhenReads(target, simNow time.Duration) time.Duration
}

// Offset is a clock with a constant offset from true time. A positive offset
// means the clock runs ahead; the zero Offset is an exactly synchronized
// clock (error = 0).
type Offset struct{ Off time.Duration }

// Read implements Clock.
func (c Offset) Read(now time.Duration) time.Duration { return now + c.Off }

// WhenReads implements Clock.
func (c Offset) WhenReads(target, now time.Duration) time.Duration {
	t := target - c.Off
	if t < now {
		return now
	}
	return t
}

// Wandering models an NTP-style clock whose offset is re-drawn from a
// zero-mean distribution at each sync epoch and linearly interpolated in
// between (slewing). The peak error is roughly Amplitude.
type Wandering struct {
	Amplitude time.Duration // max |offset|
	Period    time.Duration // re-sync interval
	offsets   []time.Duration
}

// NewWandering builds a wandering clock with its offset trajectory drawn
// deterministically from rng. The trajectory covers `horizon` of true time;
// reads beyond the horizon clamp to the last offset.
func NewWandering(rng *rand.Rand, amplitude, period, horizon time.Duration) *Wandering {
	n := int(horizon/period) + 2
	offs := make([]time.Duration, n)
	for i := range offs {
		// Triangular-ish distribution concentrated near 0 with peaks at ±amplitude.
		u := rng.Float64()*2 - 1
		offs[i] = time.Duration(u * u * u * float64(amplitude))
	}
	return &Wandering{Amplitude: amplitude, Period: period, offsets: offs}
}

func (c *Wandering) offsetAt(now time.Duration) time.Duration {
	if c.Period <= 0 || len(c.offsets) == 0 {
		return 0
	}
	i := int(now / c.Period)
	if i >= len(c.offsets)-1 {
		return c.offsets[len(c.offsets)-1]
	}
	frac := float64(now%c.Period) / float64(c.Period)
	a, b := c.offsets[i], c.offsets[i+1]
	return a + time.Duration(frac*float64(b-a))
}

// Read implements Clock.
func (c *Wandering) Read(now time.Duration) time.Duration { return now + c.offsetAt(now) }

// WhenReads implements Clock. The offset changes slowly relative to the
// intervals being awaited, so a short fixed-point iteration converges.
func (c *Wandering) WhenReads(target, now time.Duration) time.Duration {
	t := target - c.offsetAt(now)
	for i := 0; i < 4; i++ {
		if t < now {
			t = now
		}
		r := c.Read(t)
		if r >= target {
			break
		}
		t += target - r
	}
	if t < now {
		return now
	}
	return t
}

// Adjustable wraps any Clock with runtime misbehavior hooks for the chaos
// layer: Step injects an offset jump (an NTP step), Freeze stops the clock,
// and Unfreeze resumes it from the frozen value (a stopped clock stays
// behind until something re-steps it). Read stays monotonically
// non-decreasing through a high-water mark — a backward step shows up as a
// plateau until true time catches up, the way a monotonic local clock
// exposes a step-back. Untouched, the wrapper is numerically transparent:
// it returns exactly the base clock's values, so wrapping every clock (see
// Factory.New) changes no byte of any chaos-free run.
type Adjustable struct {
	base   Clock
	off    time.Duration // accumulated Step offsets
	frozen bool
	frozAt time.Duration // Read value pinned while frozen
	hw     time.Duration // monotonicity high-water mark
	moved  bool          // any Step/Freeze ever applied (fast path off)
}

// NewAdjustable wraps base.
func NewAdjustable(base Clock) *Adjustable { return &Adjustable{base: base} }

// Read implements Clock. Reads happen in non-decreasing sim-time order, so
// the high-water clamp is deterministic.
func (a *Adjustable) Read(now time.Duration) time.Duration {
	if !a.moved {
		// Base clocks honor the monotonic contract themselves; recording the
		// high-water mark keeps monotonicity across a later backward Step.
		v := a.base.Read(now)
		if v > a.hw {
			a.hw = v
		}
		return v
	}
	v := a.frozAt
	if !a.frozen {
		v = a.base.Read(now) + a.off
	}
	if v < a.hw {
		v = a.hw
	}
	a.hw = v
	return v
}

// WhenReads implements Clock. While the clock is frozen (or plateaued after
// a backward step) no future true time is guaranteed to reach target; the
// wrapper then extrapolates at rate 1, which makes waiters poll — they fire,
// observe the clock has not advanced, and re-arm. Chaos clock faults may
// therefore delay transactions but can never wedge the Clock contract.
func (a *Adjustable) WhenReads(target, now time.Duration) time.Duration {
	if !a.moved {
		return a.base.WhenReads(target, now)
	}
	cur := a.Read(now)
	if cur >= target {
		return now
	}
	if a.frozen {
		return now + (target - cur)
	}
	t := a.base.WhenReads(target-a.off, now)
	if t < now {
		t = now
	}
	return t
}

// Step jumps the clock by d (negative d models a step back; reads plateau
// at the high-water mark until true time catches up). Stepping a frozen
// clock moves the pinned value — the step survives the unfreeze.
func (a *Adjustable) Step(d time.Duration) {
	a.moved = true
	if a.frozen {
		a.frozAt += d
		return
	}
	a.off += d
}

// Freeze stops the clock at its current reading; now is the true (sim) time
// of the freeze.
func (a *Adjustable) Freeze(now time.Duration) {
	a.moved = true
	a.frozAt = a.Read(now)
	a.frozen = true
}

// Unfreeze resumes a frozen clock from the value it froze at: the clock
// stays behind true time by the freeze duration until re-stepped.
func (a *Adjustable) Unfreeze(now time.Duration) {
	if !a.frozen {
		return
	}
	a.frozen = false
	a.off = a.frozAt - a.base.Read(now)
}

// Offset reports the accumulated step offset (tests, diagnostics).
func (a *Adjustable) Offset() time.Duration { return a.off }

// Model names the clock-synchronization services from the paper's Table 3.
type Model int

// Clock synchronization models evaluated in §5.7.
const (
	ModelPerfect Model = iota
	ModelHuygens
	ModelChrony
	ModelNtpd
	ModelBad
)

// String returns the service name as used in the paper.
func (m Model) String() string {
	switch m {
	case ModelPerfect:
		return "Perfect"
	case ModelHuygens:
		return "Huygens"
	case ModelChrony:
		return "Chrony"
	case ModelNtpd:
		return "Ntpd"
	case ModelBad:
		return "Bad-Clock"
	}
	return "Unknown"
}

// Err returns the model's approximate synchronization error (Table 3).
func (m Model) Err() time.Duration {
	switch m {
	case ModelHuygens:
		return 12 * time.Microsecond
	case ModelChrony:
		return 4540 * time.Microsecond
	case ModelNtpd:
		return 16450 * time.Microsecond
	case ModelBad:
		return 62550 * time.Microsecond
	}
	return 0
}

// Factory builds per-node clocks for a given model. Every clock it hands
// out is wrapped in an Adjustable and recorded, so the chaos layer can
// address deployment clock i (creation order) for steps and freezes; the
// wrapper is numerically transparent until a fault touches it.
type Factory struct {
	Model   Model
	Horizon time.Duration
	rng     *rand.Rand
	made    []*Adjustable
}

// NewFactory returns a clock factory seeded deterministically.
func NewFactory(model Model, horizon time.Duration, seed int64) *Factory {
	return &Factory{Model: model, Horizon: horizon, rng: rand.New(rand.NewSource(seed))}
}

// New returns a fresh clock for one node, wrapped for chaos adjustment.
func (f *Factory) New() Clock {
	a := NewAdjustable(f.newBase())
	f.made = append(f.made, a)
	return a
}

// Adjustables returns every clock this factory has created, in creation
// order — the chaos layer's addressing scheme for per-node clock faults.
func (f *Factory) Adjustables() []*Adjustable { return f.made }

func (f *Factory) newBase() Clock {
	switch f.Model {
	case ModelPerfect:
		return Offset{}
	case ModelHuygens:
		// Microsecond-level error: a small constant offset captures it.
		u := f.rng.Float64()*2 - 1
		return Offset{Off: time.Duration(u * float64(ModelHuygens.Err()))}
	case ModelChrony:
		return NewWandering(f.rng, ModelChrony.Err(), 30*time.Second, f.Horizon)
	case ModelNtpd:
		return NewWandering(f.rng, ModelNtpd.Err(), 60*time.Second, f.Horizon)
	case ModelBad:
		// Unstable NTP: large offsets that change abruptly.
		return NewWandering(f.rng, ModelBad.Err(), 5*time.Second, f.Horizon)
	}
	return Offset{}
}

// MeasureError estimates the mean absolute synchronization error across a set
// of clocks sampled over [0, horizon], mirroring the paper's use of Huygens'
// real-time monitor to report Table 3's error column.
func MeasureError(cs []Clock, horizon time.Duration, samples int) time.Duration {
	if len(cs) == 0 || samples <= 0 {
		return 0
	}
	var sum time.Duration
	var n int
	for i := 0; i < samples; i++ {
		t := time.Duration(int64(horizon) * int64(i) / int64(samples))
		for _, c := range cs {
			d := c.Read(t) - t
			if d < 0 {
				d = -d
			}
			sum += d
			n++
		}
	}
	return sum / time.Duration(n)
}

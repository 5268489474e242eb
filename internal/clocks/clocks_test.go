package clocks

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestPerfectClock(t *testing.T) {
	c := NewFactory(ModelPerfect, time.Minute, 1).newBase()
	if c.Read(5*time.Second) != 5*time.Second {
		t.Fatal("perfect clock should read true time")
	}
	if c.WhenReads(3*time.Second, time.Second) != 3*time.Second {
		t.Fatal("WhenReads")
	}
	if c.WhenReads(time.Second, 3*time.Second) != 3*time.Second {
		t.Fatal("WhenReads in the past should clamp to now")
	}
}

func TestOffsetClock(t *testing.T) {
	c := Offset{Off: 10 * time.Millisecond}
	if c.Read(time.Second) != time.Second+10*time.Millisecond {
		t.Fatal("Read")
	}
	at := c.WhenReads(2*time.Second, 0)
	if c.Read(at) != 2*time.Second {
		t.Fatalf("WhenReads inversion: Read(%v) = %v", at, c.Read(at))
	}
}

// Property: for every clock model, WhenReads returns a time at which Read
// meets or exceeds the target, and never before `now`.
func TestWhenReadsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, model := range []Model{ModelPerfect, ModelHuygens, ModelChrony, ModelNtpd, ModelBad} {
		f := NewFactory(model, time.Minute, 11)
		for i := 0; i < 20; i++ {
			c := f.New()
			check := func(targetMs, nowMs uint16) bool {
				target := time.Duration(targetMs) * time.Millisecond
				now := time.Duration(nowMs) * time.Millisecond
				at := c.WhenReads(target, now)
				if at < now {
					return false
				}
				// Allow sub-ms slack for wandering clocks' interpolation.
				return c.Read(at) >= target-time.Millisecond
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
				t.Fatalf("model %v: %v", model, err)
			}
		}
	}
}

// Property: clocks are monotonically non-decreasing in true time.
func TestMonotonicProperty(t *testing.T) {
	for _, model := range []Model{ModelChrony, ModelNtpd, ModelBad} {
		f := NewFactory(model, time.Minute, 13)
		c := f.New()
		prev := c.Read(0)
		for ms := 1; ms < 60000; ms += 7 {
			now := time.Duration(ms) * time.Millisecond
			v := c.Read(now)
			if v < prev-time.Millisecond { // slewing may dip marginally
				t.Fatalf("model %v: clock went backwards at %v: %v < %v", model, now, v, prev)
			}
			if v > prev {
				prev = v
			}
		}
	}
}

// TestErrorMagnitudes checks each model's measured error lands in the right
// regime relative to Table 3 (Huygens µs-level ≪ chrony ms-level ≪ ntpd ≪
// bad clock).
func TestErrorMagnitudes(t *testing.T) {
	measure := func(m Model) time.Duration {
		f := NewFactory(m, time.Minute, 17)
		cs := make([]Clock, 24)
		for i := range cs {
			cs[i] = f.New()
		}
		return MeasureError(cs, time.Minute, 100)
	}
	hu, ch, nt, bad := measure(ModelHuygens), measure(ModelChrony), measure(ModelNtpd), measure(ModelBad)
	if !(hu < ch && ch < nt && nt < bad) {
		t.Fatalf("error ordering wrong: huygens=%v chrony=%v ntpd=%v bad=%v", hu, ch, nt, bad)
	}
	if hu > 100*time.Microsecond {
		t.Errorf("Huygens error %v should be microsecond-scale", hu)
	}
	if ch > 10*time.Millisecond || ch < 100*time.Microsecond {
		t.Errorf("chrony error %v should be low-millisecond-scale", ch)
	}
	if bad < 5*time.Millisecond {
		t.Errorf("bad-clock error %v should be tens of ms", bad)
	}
}

func TestBoundedByAmplitude(t *testing.T) {
	for _, m := range []Model{ModelChrony, ModelNtpd, ModelBad} {
		f := NewFactory(m, time.Minute, 23)
		for i := 0; i < 10; i++ {
			c := f.New()
			for ms := 0; ms < 60000; ms += 97 {
				now := time.Duration(ms) * time.Millisecond
				off := c.Read(now) - now
				if off < 0 {
					off = -off
				}
				if off > m.Err() {
					t.Fatalf("model %v offset %v exceeds amplitude %v", m, off, m.Err())
				}
			}
		}
	}
}

func TestModelStrings(t *testing.T) {
	for m, want := range map[Model]string{
		ModelPerfect: "Perfect", ModelHuygens: "Huygens", ModelChrony: "Chrony",
		ModelNtpd: "Ntpd", ModelBad: "Bad-Clock",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
}

// TestAdjustableTransparent: an untouched Adjustable returns exactly the
// base clock's values — wrapping every factory clock must not change a byte
// of any chaos-free run.
func TestAdjustableTransparent(t *testing.T) {
	base := NewWandering(rand.New(rand.NewSource(7)), 5*time.Millisecond, time.Second, time.Minute)
	a := NewAdjustable(base)
	for i := 0; i < 200; i++ {
		now := time.Duration(i) * 37 * time.Millisecond
		if got, want := a.Read(now), base.Read(now); got != want {
			t.Fatalf("Read(%v) = %v, want base %v", now, got, want)
		}
		target := now + 20*time.Millisecond
		if got, want := a.WhenReads(target, now), base.WhenReads(target, now); got != want {
			t.Fatalf("WhenReads(%v,%v) = %v, want base %v", target, now, got, want)
		}
	}
}

// TestAdjustableStep: a forward step jumps the reading; a backward step
// plateaus at the high-water mark (monotonic contract) until true time
// catches up.
func TestAdjustableStep(t *testing.T) {
	a := NewAdjustable(Offset{})
	if got := a.Read(10 * time.Millisecond); got != 10*time.Millisecond {
		t.Fatalf("pre-step Read = %v", got)
	}
	a.Step(50 * time.Millisecond)
	if got := a.Read(10 * time.Millisecond); got != 60*time.Millisecond {
		t.Fatalf("post-step Read = %v, want 60ms", got)
	}
	// Step back past the high-water mark: the clock must not run backward.
	a.Step(-50 * time.Millisecond)
	if got := a.Read(11 * time.Millisecond); got != 60*time.Millisecond {
		t.Fatalf("plateau Read = %v, want 60ms (held at high water)", got)
	}
	// True time catches up with the high-water mark; normal ticking resumes.
	if got := a.Read(70 * time.Millisecond); got != 70*time.Millisecond {
		t.Fatalf("caught-up Read = %v, want 70ms", got)
	}
}

// TestAdjustableFreeze: a frozen clock pins its reading; unfreezing resumes
// from the frozen value, leaving the clock behind by the freeze duration.
func TestAdjustableFreeze(t *testing.T) {
	a := NewAdjustable(Offset{})
	a.Freeze(20 * time.Millisecond)
	if !a.Frozen() {
		t.Fatal("Frozen() = false after Freeze")
	}
	if got := a.Read(35 * time.Millisecond); got != 20*time.Millisecond {
		t.Fatalf("frozen Read = %v, want pinned 20ms", got)
	}
	a.Unfreeze(40 * time.Millisecond)
	if got := a.Read(40 * time.Millisecond); got != 20*time.Millisecond {
		t.Fatalf("resume Read = %v, want 20ms (resumes from frozen value)", got)
	}
	if got := a.Read(55 * time.Millisecond); got != 35*time.Millisecond {
		t.Fatalf("post-resume Read = %v, want 35ms (20ms behind true time)", got)
	}
}

// TestAdjustableWhenReadsUnderFault: waiters never wedge — under a freeze
// WhenReads extrapolates at rate 1 (the waiter polls), and after a step the
// wait time reflects the shifted clock.
func TestAdjustableWhenReadsUnderFault(t *testing.T) {
	a := NewAdjustable(Offset{})
	a.Freeze(10 * time.Millisecond)
	at := a.WhenReads(30*time.Millisecond, 15*time.Millisecond)
	if at != 35*time.Millisecond {
		t.Fatalf("frozen WhenReads = %v, want 35ms (rate-1 extrapolation from the 10ms pin)", at)
	}
	if got := a.Read(at); got != 10*time.Millisecond {
		t.Fatalf("the poll fires with the clock still frozen at %v — it must re-arm, not assume the target", got)
	}
	a.Unfreeze(40 * time.Millisecond)
	// Clock reads 10ms at true 40ms (30ms behind): reaching 50ms takes until
	// true time 80ms.
	if at := a.WhenReads(50*time.Millisecond, 40*time.Millisecond); at != 80*time.Millisecond {
		t.Fatalf("post-freeze WhenReads = %v, want 80ms", at)
	}
	if got := a.Read(80 * time.Millisecond); got != 50*time.Millisecond {
		t.Fatalf("Read at the returned time = %v, want the 50ms target", got)
	}
	// A reached target returns now.
	if at := a.WhenReads(40*time.Millisecond, 90*time.Millisecond); at != 90*time.Millisecond {
		t.Fatalf("reached-target WhenReads = %v, want now", at)
	}
}

// TestFactoryAdjustables: the factory wraps and records every clock it
// creates, in creation order.
func TestFactoryAdjustables(t *testing.T) {
	f := NewFactory(ModelChrony, time.Minute, 3)
	c0, c1 := f.New(), f.New()
	made := f.Adjustables()
	if len(made) != 2 {
		t.Fatalf("Adjustables() has %d entries, want 2", len(made))
	}
	if Clock(made[0]) != c0 || Clock(made[1]) != c1 {
		t.Fatal("Adjustables() order does not match creation order")
	}
	made[1].Step(time.Millisecond)
	if got := c1.Read(0) - made[0].Read(0); got-time.Millisecond > ModelChrony.Err()*2 || got < 0 {
		t.Logf("step visible through the factory handle (delta %v)", got)
	}
}

// TestAdjustableStepWhileFrozen: a step landing on a frozen clock moves the
// pinned value and survives the unfreeze (ntp-insanity steps random clocks,
// including the one it froze).
func TestAdjustableStepWhileFrozen(t *testing.T) {
	a := NewAdjustable(Offset{})
	a.Freeze(20 * time.Millisecond)
	a.Step(30 * time.Millisecond)
	if got := a.Read(25 * time.Millisecond); got != 50*time.Millisecond {
		t.Fatalf("frozen+stepped Read = %v, want 50ms (pin moved by the step)", got)
	}
	a.Unfreeze(40 * time.Millisecond)
	if got := a.Read(40 * time.Millisecond); got != 50*time.Millisecond {
		t.Fatalf("post-unfreeze Read = %v, want 50ms (step not erased)", got)
	}
	if got := a.Read(60 * time.Millisecond); got != 70*time.Millisecond {
		t.Fatalf("resumed Read = %v, want 70ms (ticking from the stepped pin)", got)
	}
}

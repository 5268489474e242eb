package workload

import (
	"fmt"
	"math/rand"
	"time"

	"tiga/internal/protocol"
)

// Arrival is an open-loop arrival process: jobs arrive independently of
// completions (the closed-loop path re-issues on completion instead). Next
// returns the gap until the next arrival given the current virtual time.
// Implementations must be deterministic functions of (now, rng) so fixed-seed
// runs are byte-identical regardless of worker count; rng is the caller's
// per-coordinator stream.
type Arrival interface {
	Next(now time.Duration, rng *rand.Rand) time.Duration
}

// BuildArrival builds the open-loop arrival process for one coordinator.
// The only process is "poisson": fixed-rate arrivals at rate txn/s per
// coordinator, with exponential gaps. It takes no parameters; an unknown
// name, any parameter in raw, or a rate ≤ 0 is an error. coord, coords and
// region identify the coordinator and are unused by poisson.
func BuildArrival(name string, rate float64, coord, coords, region int, raw map[string]any) (Arrival, error) {
	if name != "poisson" {
		return nil, fmt.Errorf("unknown arrival process %q (the only one is poisson)", name)
	}
	if _, err := (protocol.Schema{}).Resolve(raw); err != nil {
		return nil, fmt.Errorf("arrival %s: %w", name, err)
	}
	if rate <= 0 {
		return nil, fmt.Errorf("arrival %s: rate must be positive, got %g", name, rate)
	}
	return poisson(rate), nil
}

// poisson is a fixed-rate Poisson process: one exponential draw per arrival.
type poisson float64

func (r poisson) Next(_ time.Duration, rng *rand.Rand) time.Duration {
	return expGap(float64(r), rng)
}

// expGap draws an exponential inter-arrival gap for a Poisson process at
// `rate` txn/s, floored at 1ns so the event loop always advances.
func expGap(rate float64, rng *rand.Rand) time.Duration {
	g := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
	if g < time.Nanosecond {
		g = time.Nanosecond
	}
	return g
}

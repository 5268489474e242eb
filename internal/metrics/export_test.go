// What only this package's tests call, kept out of the product build: no
// entry point runs it (ci/reach.sh).

package metrics

import "time"

// Mean returns the average sample.
func (l *Latency) Mean() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range l.samples {
		sum += s
	}
	return sum / time.Duration(len(l.samples))
}

// RollbackRate returns rollbacks/committed as a percentage (Fig 13).
func (c *Counters) RollbackRate() float64 {
	if c.Committed == 0 {
		return 0
	}
	return 100 * float64(c.Rollbacks) / float64(c.Committed)
}

// Total returns the summed attribution across buckets.
func (p *PhaseLat) Total() time.Duration {
	var t time.Duration
	for _, d := range p.NS {
		t += d
	}
	return t
}

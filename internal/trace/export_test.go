// What only this package's tests call, kept out of the product build: no
// entry point runs it (ci/reach.sh).

package trace

import "time"

// Phases returns the fine-grained phase attribution (sums to End-Start).
func (t *T) Phases() [NumPhases]time.Duration { return t.walk() }

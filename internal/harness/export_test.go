// What only this package's tests call, kept out of the product build: no
// entry point runs it (ci/reach.sh).

package harness

// DisableTracing disarms the sink and drops any collected summaries.
func DisableTracing() {
	traceSinkMu.Lock()
	defer traceSinkMu.Unlock()
	traceSinkCfg = nil
	traceSink = nil
}

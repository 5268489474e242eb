package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own files around its calls into the repository: name, start,
// end, and the span that caused it (−1 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps a run's spans in memory; write dumps them when the benchmark
// ends. A nil log records nothing, so the timed runs pay nothing for it.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	if l == nil {
		return -1
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name,
		StartNs: start.Sub(l.origin).Nanoseconds(), EndNs: end.Sub(l.origin).Nanoseconds()})
	return id
}

func (l *spanLog) end(id int, at time.Time) {
	if l != nil && id >= 0 {
		l.spans[id].EndNs = at.Sub(l.origin).Nanoseconds()
	}
}

// timed records fn as a span under parent and returns its id.
func (l *spanLog) timed(name string, parent int, fn func()) int {
	start := time.Now()
	fn()
	return l.add(name, parent, start, time.Now())
}

func (l *spanLog) write(path string) error {
	if l == nil || path == "" {
		return nil
	}
	b, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

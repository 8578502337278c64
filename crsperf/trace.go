package main

// The traced run's span recorder. Spans are recorded from the benchmark's
// own files, around its calls into each layer, kept in memory in
// preallocated per-goroutine lanes, and written out when the run ends.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// Lanes: one per client, then one for set-up and phases, one for the
// commit logger (which runs on whichever goroutine closes a window).
const (
	laneMain   = clients
	laneCommit = clients + 1
	lanes      = clients + 2
)

// laneCap bounds the spans kept per lane; further spans are counted as
// dropped rather than grown into, so recording never allocates.
const laneCap = 1 << 18

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch.
type span struct {
	id, parent uint64
	name       string
	start, end int64
}

type lane struct {
	mu      sync.Mutex
	spans   []span
	dropped int
	_       [64]byte // keeps the lanes' hot fields on separate cache lines
}

// tracer records spans.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	lanes [lanes]lane
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	for i := range t.lanes {
		t.lanes[i].spans = make([]span, 0, laneCap)
	}
	return t
}

// newID returns a fresh span id (never 0, which means "no parent").
func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// record appends a finished span to lane l.
func (t *tracer) record(l int, id, parent uint64, name string, start, end time.Time) {
	ln := &t.lanes[l]
	ln.mu.Lock()
	if len(ln.spans) < cap(ln.spans) {
		ln.spans = append(ln.spans, span{id, parent, name, start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds()})
	} else {
		ln.dropped++
	}
	ln.mu.Unlock()
}

// timed runs fn as a span named name under parent on lane l. It is a
// plain call when t is nil.
func (t *tracer) timed(l int, parent uint64, name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	t.record(l, t.newID(), parent, name, start, time.Now())
	return err
}

// durations returns the durations of every span named name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for i := range t.lanes {
		ln := &t.lanes[i]
		ln.mu.Lock()
		for _, s := range ln.spans {
			if s.name == name {
				out = append(out, time.Duration(s.end-s.start))
			}
		}
		ln.mu.Unlock()
	}
	return out
}

// quantiles digests the durations of the spans named name, in µs.
func (t *tracer) quantiles(name string) latencies { return quantiles(t.durations(name)) }

// median returns the median duration of the spans named name, in µs.
func (t *tracer) median(name string) float64 {
	d := t.durations(name)
	if len(d) == 0 {
		return 0
	}
	us := make([]float64, len(d))
	for i, v := range d {
		us[i] = float64(v.Nanoseconds()) / 1e3
	}
	return median(us)
}

// write stores every span as one tab-separated line: id, parent, name,
// start and end in nanoseconds since the run began.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	dropped := 0
	for i := range t.lanes {
		ln := &t.lanes[i]
		for _, s := range ln.spans {
			fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.name, s.start, s.end)
		}
		dropped += ln.dropped
	}
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "crsperf: trace dropped %d spans past the %d-per-lane cap\n", dropped, laneCap)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedLogger is the commit logger of a traced wire run: it records a
// LogCommit span around each append to the write-ahead log.
type timedLogger struct {
	m  *wal.Manager
	tr *tracer
}

func (l *timedLogger) LogCommit(ops []core.RedoOp) error {
	return l.tr.timed(laneCommit, 0, "LogCommit", func() error { return l.m.LogCommit(ops) })
}

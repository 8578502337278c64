// Command crsperf is the repository's benchmark. It runs one named
// workload closed loop — two clients (goroutines) in one process, each
// issuing its next operation only after the previous one completed — for
// a fixed number of seconds, checks the program's outputs, and prints the
// metrics as the last line of standard output:
//
//	crsperf --workload wire-durable --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// an untraced timed phase and then a traced one, and prints the per-layer
// metrics. WORKLOADS.md records what each workload runs and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/wal"
)

// clients is the closed-loop concurrency of every workload.
const clients = 2

// setupReps is how many times a run sets its system up; setup_s is the
// median, and the last system built is the one measured.
const setupReps = 5

// samplesPerSecond sizes each client's preallocated latency buffer per
// second of the phase, above the fastest workload's rate, so recording a
// sample does not allocate during the timed phase.
const samplesPerSecond = 120_000

// system is one workload's system under test, built by its set-up.
type system interface {
	// op runs client w's next operation. parent is the operation's span
	// id when tracing (0 otherwise).
	op(w int, parent uint64) error
	// counters reads the layers' counters.
	counters() layerCounters
	// rows counts the rows the system stores.
	rows() int
	// trace switches the system to traced operation: lock-schedule
	// tracing on, and spans recorded into tr. Called between phases.
	trace(tr *tracer) error
	// check verifies the outputs once all phases are done.
	check() error
	// close releases the system.
	close() error
}

// workloadDef describes one workload.
type workloadDef struct {
	name string
	// opSpan names the span recorded around each operation.
	opSpan string
	// prepare generates the seeded inputs outside the set-up timer and
	// returns the set-up step, which builds one system from them; the
	// harness times each call of setup.
	prepare func(seed uint64, work string) (setup func(tr *tracer, parent uint64) (system, error), cleanup func(), err error)
}

var workloads = []workloadDef{
	{name: "wire-durable", opSpan: "request", prepare: prepareWire},
	{name: "engine-contended", opSpan: "SocialOpSkewed", prepare: prepareEngine},
	{name: "graph-relation", opSpan: "CompositeOp", prepare: prepareGraph},
}

// layerCounters are the counters a system exposes; zero-valued fields
// belong to layers the workload bypasses.
type layerCounters struct {
	core core.Counters
	disp server.Stats
	wal  wal.Stats
	// locksRequested and locksAcquired total the traced lock schedules.
	locksRequested, locksAcquired int64
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "timed phase length in seconds")
	traced := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	work := flag.String("work", ".bench_build", "directory for WAL files and trace output")
	flag.Parse()
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "crsperf: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	res, err := run(def, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crsperf: %s: %v\n", def.name, err)
		if res == nil {
			os.Exit(1)
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "crsperf: %v\n", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run. A non-nil result with an error is a
// run whose output check failed.
func run(def *workloadDef, seed uint64, timed time.Duration, traced bool, work string) (*result, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	setup, cleanup, err := def.prepare(seed, work)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	defer cleanup()

	// Set up setupReps times and keep the last system; the earlier ones
	// are closed before the next is built so only one is ever live.
	var sys system
	var setups []float64
	var heapBefore, heapAfter uint64
	for i := 0; i < setupReps; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
			sys = nil
		}
		// Also collects the previous system outside the set-up timer.
		heapBefore = liveHeap()
		var parent uint64
		var t0 time.Time
		if tr != nil {
			parent, t0 = tr.newID(), time.Now()
		}
		start := time.Now()
		sys, err = setup(tr, parent)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if tr != nil {
			tr.record(laneMain, parent, 0, "setup", t0, time.Now())
		}
		heapAfter = liveHeap()
	}
	defer sys.close()
	var setupRows int
	if traced {
		setupRows = sys.rows()
	}

	// Warm up, discard, collect garbage, then measure.
	warm := timed / 5
	if warm < time.Second {
		warm = time.Second
	}
	h := &harness{sys: sys}
	h.phase(warm, false, nil, "", 0)
	runtime.GC()
	untraced := h.phase(timed, true, nil, "", 0)

	res := &result{Metrics: map[string]metric{}}
	res.Attempted, res.Failed = untraced.ops+untraced.failed, untraced.failed
	if !traced {
		// Stop the system's background work (a WAL snapshot in flight
		// holds a copy of the registry) so the heap reads the same at
		// every run.
		if err := sys.close(); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
		untraced.samples, h.samples = nil, [clients][]sample{}
		u := untraced
		res.Metrics["throughput_ops_s"] = metric{u.windowMedian(func(w window) float64 { return float64(w.ops) / w.dur.Seconds() }), "ops/s"}
		res.Metrics["latency_p50_us"] = metric{u.windowMedian(func(w window) float64 { return w.lat.p50 }), "us"}
		res.Metrics["latency_p95_us"] = metric{u.windowMedian(func(w window) float64 { return w.lat.p95 }), "us"}
		res.Metrics["cpu_us_per_op"] = metric{u.perOp(u.cpu.Seconds() * 1e6), "us"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["heap_live_mb"] = metric{float64(liveHeap()) / 1e6, "MB"}
	} else {
		if err := sys.trace(tr); err != nil {
			return nil, fmt.Errorf("enable tracing: %w", err)
		}
		phaseID, t0 := tr.newID(), time.Now()
		tracedPh := h.phase(timed, true, tr, def.opSpan, phaseID)
		tr.record(laneMain, phaseID, 0, "phase", t0, time.Now())
		res.Attempted += tracedPh.ops + tracedPh.failed
		res.Failed += tracedPh.failed
		layerMetrics(res.Metrics, untraced, tracedPh, tr, setupRows, sys.rows(), heapAfter-min(heapAfter, heapBefore))
		if err := tr.write(filepath.Join(work, "trace", fmt.Sprintf("%s-seed%d.tsv", def.name, seed))); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	err = sys.check()
	res.Correct = err == nil && res.Failed == 0 && h.warmFailed == 0
	return res, err
}

// harness drives the closed loop over one system.
type harness struct {
	sys        system
	samples    [clients][]sample
	warmFailed int64
}

// sample is one completed operation: its latency, and when it ended
// relative to the start of its phase.
type sample struct{ lat, end time.Duration }

// windowLen divides a timed phase into windows; the throughput and
// latency figures are medians over the windows, so a burst of
// interference from outside the process that lasts less than half the
// phase does not move them. CPU per operation is taken over the whole
// phase instead: garbage collections and WAL snapshots arrive every
// second or few, so each window holds a different share of them, and a
// median over windows would pick one share at random.
const windowLen = time.Second

// window is what one window of a timed phase measured.
type window struct {
	ops int64
	dur time.Duration
	lat latencies
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	ops, failed int64
	elapsed     time.Duration
	cpu         time.Duration
	samples     []sample
	windows     []window
	before      layerCounters
	after       layerCounters
	rt          runtimeDelta
	ioWrite     int64
}

func (p *phaseResult) throughput() float64 { return float64(p.ops) / p.elapsed.Seconds() }

// perOp divides v by the phase's completed operations.
func (p *phaseResult) perOp(v float64) float64 {
	if p.ops == 0 {
		return 0
	}
	return v / float64(p.ops)
}

// windowMedian is the median over the phase's windows of f.
func (p *phaseResult) windowMedian(f func(w window) float64) float64 {
	v := make([]float64, len(p.windows))
	for i, w := range p.windows {
		v[i] = f(w)
	}
	return median(v)
}

// paddedCount is a per-client counter on its own cache line.
type paddedCount struct {
	n atomic.Int64
	_ [56]byte
}

// phase runs both clients for d. With record set it keeps one latency
// sample per operation, measures each window, and reads the counters
// around the phase; with tr set it records a span per operation named
// opSpan, child of parent.
func (h *harness) phase(d time.Duration, record bool, tr *tracer, opSpan string, parent uint64) *phaseResult {
	p := &phaseResult{}
	if record {
		for w := range h.samples {
			if n := int(d.Seconds() * samplesPerSecond); cap(h.samples[w]) < n {
				h.samples[w] = make([]sample, 0, n)
			}
			h.samples[w] = h.samples[w][:0]
		}
		p.before = h.sys.counters()
	}
	var stop atomic.Bool
	var ops, failed [clients]paddedCount
	var wg sync.WaitGroup
	cpu0, rt0, io0 := cpuTime(), readRuntime(), ioWriteBytes()
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A local slice header, so the clients never write to a
			// shared cache line.
			buf := h.samples[w]
			defer func() { h.samples[w] = buf }()
			for !stop.Load() {
				var id uint64
				if tr != nil {
					id = tr.newID()
				}
				t0 := time.Now()
				err := h.sys.op(w, id)
				t1 := time.Now()
				if err != nil {
					failed[w].n.Add(1)
					fmt.Fprintf(os.Stderr, "crsperf: client %d: %v\n", w, err)
					continue
				}
				ops[w].n.Add(1)
				if record {
					buf = append(buf, sample{t1.Sub(t0), t1.Sub(start)})
				}
				if tr != nil {
					tr.record(w, id, parent, opSpan, t0, t1)
				}
			}
		}(w)
	}
	// Read the operation count at every window boundary.
	total := func() (n int64) {
		for w := range ops {
			n += ops[w].n.Load()
		}
		return n
	}
	prevAt, prevOps := time.Duration(0), int64(0)
	for k := 1; ; k++ {
		at := min(time.Duration(k)*windowLen, d)
		time.Sleep(time.Until(start.Add(at)))
		now, n := time.Since(start), total()
		p.windows = append(p.windows, window{ops: n - prevOps, dur: now - prevAt})
		prevAt, prevOps = now, n
		if at == d {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	p.elapsed = time.Since(start)
	p.cpu = cpuTime() - cpu0
	p.rt = readRuntime().sub(rt0)
	p.ioWrite = ioWriteBytes() - io0
	p.ops = total()
	for w := range failed {
		p.failed += failed[w].n.Load()
	}
	if !record {
		h.warmFailed += p.failed
		return p
	}
	p.after = h.sys.counters()
	for w := range h.samples {
		p.samples = append(p.samples, h.samples[w]...)
	}
	// Each window's latencies are those of the operations that ended in
	// it; operations ending after the last boundary belong to none.
	bounds := make([]time.Duration, len(p.windows))
	var at time.Duration
	for i, w := range p.windows {
		at += w.dur
		bounds[i] = at
	}
	perWindow := make([][]time.Duration, len(p.windows))
	for _, s := range p.samples {
		if i := sort.Search(len(bounds), func(i int) bool { return s.end < bounds[i] }); i < len(bounds) {
			perWindow[i] = append(perWindow[i], s.lat)
		}
	}
	for i := range p.windows {
		p.windows[i].lat = quantiles(perWindow[i])
	}
	return p
}

// latencies are quantiles of raw per-operation samples, in µs.
type latencies struct {
	p50, p95 float64
	n        int
}

// quantiles sorts the samples and reads nearest-rank quantiles.
func quantiles(s []time.Duration) latencies {
	if len(s) == 0 {
		return latencies{}
	}
	slices.Sort(s)
	at := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(s)))) - 1
		return float64(s[max(i, 0)].Nanoseconds()) / 1e3
	}
	return latencies{p50: at(0.50), p95: at(0.95), n: len(s)}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// liveHeap returns the bytes of live heap objects. It collects twice:
// the first collection only moves sync.Pool contents to the pools'
// victim caches, the second frees them.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ioWriteBytes returns the bytes this process caused to be sent to
// storage (write_bytes of /proc/self/io), or 0 where that is unavailable.
func ioWriteBytes() int64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	var v int64
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "write_bytes: %d", &v); err == nil {
			return v
		}
	}
	return 0
}

// runtimeDelta is a runtime/metrics difference over a phase.
type runtimeDelta struct {
	allocs, allocBytes, gcCycles, gcCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeDelta{allocs: v(0), allocBytes: v(1), gcCycles: v(2), gcCPU: v(3)}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocs - b.allocs, a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU}
}

// layerMetrics fills the per-layer metrics. Runtime and core counters
// come from the untraced phase, because lock-schedule tracing allocates
// per batch; spans, lock counts, dispatcher and WAL figures come from the
// traced phase.
func layerMetrics(m map[string]metric, u, t *phaseResult, tr *tracer, setupRows, rows int, preloadHeap uint64) {
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	do := tr.quantiles("Client.Do")
	put("client.do_us_p50", do.p50, "us")
	put("client.do_us_p95", do.p95, "us")

	ds := t.after.disp
	reqs := float64(ds.Requests - t.before.disp.Requests)
	var commitP50, commitP95, occP95 float64
	if ds.CommitLatency != nil {
		commitP50, commitP95 = float64(ds.CommitLatency.P50)/1e3, float64(ds.CommitLatency.P95)/1e3
	}
	if ds.WindowOccupancy != nil {
		occP95 = float64(ds.WindowOccupancy.P95)
	}
	put("server.commit_us_p50", commitP50, "us")
	put("server.commit_us_p95", commitP95, "us")
	front := 0.0
	if reqs > 0 {
		front = do.p50 - commitP50
	}
	put("server.front_us_p50", front, "us")
	put("server.mean_batch", ratio(reqs, float64(ds.Batches-t.before.disp.Batches)), "count")
	put("server.occupancy_p95", occP95, "count")
	put("server.degraded", float64(ds.Degraded-t.before.disp.Degraded), "count")

	ws, w0 := t.after.wal, t.before.wal
	put("wal.append_us_p50", tr.quantiles("LogCommit").p50, "us")
	put("wal.fsyncs_per_req", ratio(float64(ws.Fsyncs-w0.Fsyncs), reqs), "count")
	put("wal.appends_per_req", ratio(float64(ws.Appends-w0.Appends), reqs), "count")
	put("wal.bytes_per_req", ratio(float64(t.ioWrite), reqs), "B")
	put("wal.snapshots", float64(ws.Snapshots-w0.Snapshots), "count")
	put("wal.recover_s", tr.median("wal.Open")/1e6, "s")
	put("wal.recovered_batches", float64(ws.RecoveredBatches), "count")

	uc, uc0 := u.after.core, u.before.core
	batches := float64(uc.Batches - uc0.Batches)
	put("core.locks_per_op", u.perOp(float64(uc.LocksAcquired-uc0.LocksAcquired)), "count")
	put("core.ro_optimistic_frac", ratio(float64(uc.ReadOnlyOptimistic-uc0.ReadOnlyOptimistic), batches), "frac")
	put("core.occ_retries_per_kcommit", 1000*ratio(float64(uc.OCCRetries-uc0.OCCRetries), float64(uc.OCCCommits-uc0.OCCCommits)), "count")
	put("core.occ_fallbacks_per_kop", 1000*u.perOp(float64(uc.OCCFallbacks-uc0.OCCFallbacks)), "count")
	put("core.synthesize_ms", tr.median("Synthesize")/1e3, "ms")
	put("core.preload_s", tr.median("preload")/1e6, "s")

	req := float64(t.after.locksRequested - t.before.locksRequested)
	acq := float64(t.after.locksAcquired - t.before.locksAcquired)
	put("locks.requested_per_op", t.perOp(req), "count")
	put("locks.acquired_per_op", t.perOp(acq), "count")
	put("locks.coalesce_frac", ratio(acq, req), "frac")

	put("container.rows", float64(rows), "count")
	put("container.heap_bytes_per_row", ratio(float64(preloadHeap), float64(setupRows)), "B")

	put("runtime.allocs_per_op", u.perOp(u.rt.allocs), "count")
	put("runtime.alloc_bytes_per_op", u.perOp(u.rt.allocBytes), "B")
	put("runtime.gc_cpu_frac", ratio(u.rt.gcCPU, u.cpu.Seconds()), "frac")
	put("runtime.gc_cycles", u.rt.gcCycles, "count")

	put("bench.samples", float64(len(u.samples)), "count")
	put("bench.trace_overhead_frac", 1-t.throughput()/u.throughput(), "frac")
}

package main

// The wire-durable workload: the crsd request path, served in-process on
// loopback by server.Server over a social registry recovered from a
// write-ahead log. Each client owns one HTTP connection and a disjoint
// key partition (client c of 2 uses keys ≡ c mod 2), so the final
// registry state and every client's reply stream are independent of how
// the two streams interleave — which is what lets the check replay them
// sequentially.

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/wal"
	"repro/internal/workload"
)

const (
	// wireKeys is the number of user ids each client draws from. With
	// 64, a client's posts and follows span 64×64 pairs, so the registry
	// holds ≈12 MB at the end of a run and each garbage collection is a
	// small share of a second's CPU (at 4096 ids the heap reached ≈50 MB
	// and collections took a quarter of the process CPU).
	wireKeys = 64
	// wireHistory is the number of requests in the recovered history.
	wireHistory = 70000
	// wireSnapshotEvery is the snapshot interval in appended batches:
	// short enough that every run spans a few snapshot cycles, long
	// enough that most 1-second windows hold none (see WORKLOADS.md).
	wireSnapshotEvery = 2048
	// historyKeys is the number of user ids the history draws from.
	historyKeys = 64
	// historySalt separates the history's generator from the clients'.
	historySalt = 0x5eed_a11ce
)

// wireMix is the clients' traffic. The server runs crsd's defaults: a
// 500 µs window, MaxBatch 64 and one fsync per group commit.
var wireMix = workload.DefaultSocialMix()

// wireClient is one closed-loop client: its generator, its connection,
// and the fold of every reply it received.
type wireClient struct {
	gen  *server.SocialTraffic
	cl   *client.Client
	sum  uint64
	done int
	_    [32]byte // keeps each client's fields on their own cache line
}

// wireSys is one booted server with its WAL.
type wireSys struct {
	seed    uint64
	dir     string
	soc     *workload.Social
	m       *wal.Manager
	srv     *server.Server
	clients [clients]wireClient
	// tr and counts are set once the run switches to tracing.
	tr     *tracer
	counts *workload.LockCounts
	closed bool
}

// historyMix is the recovered history's mix: post inserts and removes
// over historyKeys users cancel out, so recovery replays many records
// into a registry small enough that a snapshot stays cheap.
var historyMix = workload.SocialMix{AddPosts: 45, RemovePosts: 45, Follows: 10}

// historyRequests calls fn with each request of the seeded history.
func historyRequests(seed uint64, fn func(*server.Request) error) error {
	gen := server.NewSocialTraffic(seed^historySalt, historyMix, historyKeys, 1, 0)
	for i := 0; i < wireHistory; i++ {
		if err := fn(gen.Next()); err != nil {
			return err
		}
	}
	return nil
}

// prepareWire writes the seeded history into a WAL directory; each
// set-up copies it (untimed) and recovers a registry from the copy.
func prepareWire(seed uint64, work string) (func(*tracer, uint64) (system, error), func(), error) {
	hist, err := os.MkdirTemp(work, "wal-history-")
	if err != nil {
		return nil, nil, err
	}
	var dirs []string
	cleanup := func() {
		os.RemoveAll(hist)
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}
	if err := writeHistory(hist, seed); err != nil {
		cleanup()
		return nil, nil, fmt.Errorf("history: %w", err)
	}
	return func(tr *tracer, parent uint64) (system, error) {
		dir, err := os.MkdirTemp(work, "wal-run-")
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, dir)
		if err := copyDir(hist, dir); err != nil {
			return nil, err
		}
		return bootWire(seed, dir, tr, parent)
	}, cleanup, nil
}

// writeHistory logs the history into dir through a registry with the WAL
// attached. Each request commits alone, so it becomes one redo record.
func writeHistory(dir string, seed uint64) error {
	soc, err := workload.NewSocial()
	if err != nil {
		return err
	}
	m, err := wal.Open(dir, soc.Reg, wal.Options{Policy: wal.SyncNone})
	if err != nil {
		return err
	}
	soc.Reg.SetCommitLogger(m)
	d := server.NewDispatcher(soc.Reg, server.Config{MaxBatch: 1})
	err = historyRequests(seed, func(r *server.Request) error { _, err := d.Submit(r); return err })
	d.Close()
	if cerr := m.Close(); err == nil {
		err = cerr
	}
	return err
}

// bootWire is the timed set-up: synthesize the schema, recover it from
// the WAL in dir, attach the log and listen.
func bootWire(seed uint64, dir string, tr *tracer, parent uint64) (system, error) {
	s := &wireSys{seed: seed, dir: dir}
	if err := tr.timed(laneMain, parent, "Synthesize", func() (err error) {
		s.soc, err = workload.NewSocial()
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.timed(laneMain, parent, "wal.Open", func() (err error) {
		s.m, err = wal.Open(dir, s.soc.Reg, wal.Options{Policy: wal.SyncBatch, SnapshotEvery: wireSnapshotEvery})
		return err
	}); err != nil {
		return nil, err
	}
	s.soc.Reg.SetCommitLogger(s.m)
	if err := tr.timed(laneMain, parent, "listen", s.listen); err != nil {
		s.m.Close()
		return nil, err
	}
	for c := range s.clients {
		s.clients[c].gen = server.NewSocialTraffic(seed, wireMix, wireKeys, clients, int64(c))
	}
	return s, nil
}

// listen starts a server over the registry and connects both clients.
func (s *wireSys) listen() error {
	s.srv = server.New(s.soc.Reg, server.Config{WAL: s.m, Counts: s.counts})
	if err := s.srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	for c := range s.clients {
		s.clients[c].cl = client.New("http://" + s.srv.Addr())
	}
	return nil
}

// shutdown stops the server, answering every accepted request first.
func (s *wireSys) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for c := range s.clients {
		s.clients[c].cl.HTTP.CloseIdleConnections()
	}
	return s.srv.Shutdown(ctx)
}

func (s *wireSys) op(w int, parent uint64) error {
	c := &s.clients[w]
	req := c.gen.Next()
	start := time.Now()
	resp, err := c.cl.Do(context.Background(), req)
	if s.tr != nil {
		s.tr.record(w, s.tr.newID(), parent, "Client.Do", start, time.Now())
	}
	if err != nil {
		return err
	}
	c.sum = server.FoldResponse(c.sum, resp)
	c.done++
	return nil
}

func (s *wireSys) counters() layerCounters {
	lc := layerCounters{disp: s.srv.Dispatcher().Stats(), wal: s.m.Stats()}
	lc.core = *lc.disp.Registry
	if s.counts != nil {
		lc.locksRequested, lc.locksAcquired = s.counts.Requested.Load(), s.counts.Acquired.Load()
	}
	return lc
}

func (s *wireSys) rows() int { return registryRows(s.soc) }

// trace restarts the server with lock-schedule tracing on and a timing
// wrapper around the WAL; the registry and the WAL stay as they are.
func (s *wireSys) trace(tr *tracer) error {
	if err := s.shutdown(); err != nil {
		return err
	}
	s.tr, s.counts = tr, &workload.LockCounts{}
	s.soc.Reg.SetCommitLogger(&timedLogger{m: s.m, tr: tr})
	return s.listen()
}

// check stops the server and compares its final state with a sequential
// replay of the history plus exactly the requests each client completed,
// then recovers the WAL into a fresh registry and compares again.
func (s *wireSys) check() error {
	if err := s.close(); err != nil {
		return err
	}
	live, err := server.RegistryChecksum(s.soc.Reg)
	if err != nil {
		return err
	}
	oracle, err := workload.NewSocial()
	if err != nil {
		return err
	}
	d := server.NewDispatcher(oracle.Reg, server.Config{MaxBatch: 1})
	defer d.Close()
	if err := historyRequests(s.seed, func(r *server.Request) error { _, err := d.Submit(r); return err }); err != nil {
		return fmt.Errorf("oracle history: %w", err)
	}
	for c := range s.clients {
		gen := server.NewSocialTraffic(s.seed, wireMix, wireKeys, clients, int64(c))
		var sum uint64
		for i := 0; i < s.clients[c].done; i++ {
			resp, err := d.Submit(gen.Next())
			if err != nil {
				return fmt.Errorf("oracle client %d request %d: %w", c, i, err)
			}
			sum = server.FoldResponse(sum, resp)
		}
		if sum != s.clients[c].sum {
			return fmt.Errorf("client %d: replies fold to %d, sequential replay to %d", c, s.clients[c].sum, sum)
		}
	}
	want, err := server.RegistryChecksum(oracle.Reg)
	if err != nil {
		return err
	}
	if live != want {
		return fmt.Errorf("final registry checksum %x, sequential replay %x", live, want)
	}
	again, err := workload.NewSocial()
	if err != nil {
		return err
	}
	m, err := wal.Open(s.dir, again.Reg, wal.Options{})
	if err != nil {
		return fmt.Errorf("reopen wal: %w", err)
	}
	got, err := server.RegistryChecksum(again.Reg)
	if cerr := m.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if got != live {
		return fmt.Errorf("recovered registry checksum %x, live %x", got, live)
	}
	return nil
}

func (s *wireSys) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.shutdown()
	if cerr := s.m.Close(); err == nil {
		err = cerr
	}
	return err
}

// registryRows counts the rows of the social registry's relations.
func registryRows(soc *workload.Social) int {
	n := 0
	for _, r := range soc.Reg.Relations() {
		t, err := r.Snapshot()
		if err != nil {
			return 0
		}
		n += len(t)
	}
	return n
}

// copyDir copies the regular files of src into dst.
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

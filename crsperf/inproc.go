package main

// The in-process workloads: the paper's §6.2 method (clients × random
// composite operations over shared relations) without HTTP or the WAL.

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/graphreps"
	"repro/internal/rel"
	"repro/internal/workload"
)

const (
	// engineKeys is the key space of engine-contended. At skew 0.9 more
	// than half of the key draws land on id 0, so the clients contend on
	// a small, cache-resident hot set.
	engineKeys = 256
	engineSkew = 0.9
	// The preload holds every follows edge and each possible post with
	// probability enginePostPct percent: the mix never removes follows,
	// and its post inserts and removes balance at 75%, so the population
	// stays near its preloaded size during a run.
	enginePostPct = 75

	// graphNodes is the node count of graph-relation; the preload holds
	// each of the graphNodes² possible edges with probability
	// graphDensityPct percent, close to where the mix's inserts and moves
	// balance, so the edge count stays near its preloaded size in a run.
	graphNodes      = 512
	graphDensityPct = 80

	// diffOps is the length of the seeded differential check sequence.
	diffOps = 2000
	// diffSalt separates the check's generator from the clients'.
	diffSalt = 0xd1ff
)

// clientState is one client's generator state and result sink, on its
// own cache line so the clients never write to a shared one.
type clientState struct {
	rng, sink uint64
	_         [48]byte
}

// clientStates seeds each client's SplitMix64 state the way the
// repository's workload drivers do.
func clientStates(seed uint64) (s [clients]clientState) {
	for w := range s {
		s[w].rng = seed*0x9e3779b97f4a7c15 + uint64(w)*0xdeadbeefcafef00d + 1
	}
	return s
}

// engineSys is engine-contended: social composites on Registry.Batch.
type engineSys struct {
	seed   uint64
	soc    *workload.Social
	state  [clients]clientState
	counts *workload.LockCounts
}

// prepareEngine generates the population: a post (author, post) per
// pair with probability enginePostPct percent, and every follows edge,
// with seeded timestamps.
func prepareEngine(seed uint64, _ string) (func(*tracer, uint64) (system, error), func(), error) {
	state := seed ^ 0xe4917e
	var posts, follows [][3]int64
	for a := int64(0); a < engineKeys; a++ {
		for b := int64(0); b < engineKeys; b++ {
			r := workload.SplitMix64(&state)
			if r%100 < enginePostPct {
				posts = append(posts, [3]int64{a, b, int64(r >> 40)})
			}
			follows = append(follows, [3]int64{a, b, int64(r >> 24 & 0xffff)})
		}
	}
	setup := func(tr *tracer, parent uint64) (system, error) {
		s := &engineSys{seed: seed, state: clientStates(seed)}
		if err := tr.timed(laneMain, parent, "Synthesize", func() (err error) {
			s.soc, err = workload.NewSocial()
			return err
		}); err != nil {
			return nil, err
		}
		err := tr.timed(laneMain, parent, "preload", func() error {
			for _, p := range posts {
				if !s.soc.AddPost(p[0], p[1], p[2]) {
					return fmt.Errorf("preload post %d/%d was already present", p[0], p[1])
				}
			}
			for _, f := range follows {
				s.soc.Follow(f[0], f[1], f[2])
			}
			return nil
		})
		return s, err
	}
	return setup, func() {}, nil
}

func (s *engineSys) op(w int, _ uint64) error {
	c := &s.state[w]
	c.sink += workload.SocialOpSkewed(s.soc, &c.rng, workload.MixedSocialMix(), engineKeys, engineSkew)
	return nil
}

func (s *engineSys) counters() layerCounters {
	lc := layerCounters{core: s.soc.Reg.Harvest()}
	if s.counts != nil {
		lc.locksRequested, lc.locksAcquired = s.counts.Requested.Load(), s.counts.Acquired.Load()
	}
	return lc
}

func (s *engineSys) rows() int { return registryRows(s.soc) }

func (s *engineSys) trace(*tracer) error {
	s.counts = &workload.LockCounts{}
	s.soc.Counts = s.counts
	return nil
}

// check verifies every relation's representation invariants, then runs
// the differential sequence on each, sampling the hottest user and
// three seeded ones.
func (s *engineSys) check() error {
	ids := sampleIDs(s.seed, engineKeys, 4)
	ids[0] = 0
	for _, c := range []struct {
		r    *core.Relation
		cols []string
	}{{s.soc.Users, []string{"user"}}, {s.soc.Posts, []string{"author"}}, {s.soc.Follows, []string{"src"}}} {
		if _, err := c.r.VerifyWellFormed(); err != nil {
			return fmt.Errorf("%s: %w", c.r.Name(), err)
		}
		if err := differential(c.r, c.cols, ids, engineKeys, s.seed); err != nil {
			return fmt.Errorf("%s: %w", c.r.Name(), err)
		}
	}
	return nil
}

func (s *engineSys) close() error { return nil }

// graphMix is graph-relation's traffic: DefaultBatchMix's 2:1 ratio of
// insert pairs to moves (so the edge density still balances near 83%),
// with fewer two-hop counts. Under DefaultBatchMix (20/10/40/30) the
// median operation was a write that had or had not waited for the other
// client's two-hop scan, where latency rose from 12 to 270 µs between the
// 40th and 60th percentiles, and latency_p50_us spread 0.23 between runs;
// here the median falls among the successor-count reads.
var graphMix = workload.BatchMix{InsertPairs: 10, Moves: 5, CountPairs: 65, TwoHops: 20}

// graphSys is graph-relation: one standalone Diamond 1 relation driven by
// batched graph composites.
type graphSys struct {
	seed   uint64
	g      *workload.RelationBatchGraph
	state  [clients]clientState
	counts *workload.LockCounts
}

// prepareGraph generates the preloaded edge set.
func prepareGraph(seed uint64, _ string) (func(*tracer, uint64) (system, error), func(), error) {
	v, err := graphreps.VariantByName("Diamond 1")
	if err != nil {
		return nil, nil, err
	}
	state := seed ^ 0x96a9
	var edges [][3]int64
	for a := int64(0); a < graphNodes; a++ {
		for b := int64(0); b < graphNodes; b++ {
			if r := workload.SplitMix64(&state); r%100 < graphDensityPct {
				edges = append(edges, [3]int64{a, b, int64(r >> 40)})
			}
		}
	}
	setup := func(tr *tracer, parent uint64) (system, error) {
		s := &graphSys{seed: seed, state: clientStates(seed)}
		var r *core.Relation
		if err := tr.timed(laneMain, parent, "Synthesize", func() (err error) {
			if r, err = v.Build(); err != nil {
				return err
			}
			s.g, err = workload.NewRelationBatchGraph(r)
			return err
		}); err != nil {
			return nil, err
		}
		err := tr.timed(laneMain, parent, "preload", func() error {
			for _, e := range edges {
				if !s.g.InsertEdge(e[0], e[1], e[2]) {
					return fmt.Errorf("preload edge %d->%d was already present", e[0], e[1])
				}
			}
			return nil
		})
		return s, err
	}
	return setup, func() {}, nil
}

func (s *graphSys) op(w int, _ uint64) error {
	c := &s.state[w]
	c.sink += workload.CompositeOp(s.g, &c.rng, graphMix, graphNodes)
	return nil
}

func (s *graphSys) counters() layerCounters {
	rc := s.g.R.Harvest()
	lc := layerCounters{core: core.Counters{
		Batches:            rc.Batches,
		LocksAcquired:      rc.LocksAcquired,
		ReadOnlyOptimistic: rc.ReadOnlyOptimistic,
		OCCCommits:         rc.OCCCommits,
		OCCRetries:         rc.OCCRetries,
		OCCFallbacks:       rc.OCCFallbacks,
	}}
	if s.counts != nil {
		lc.locksRequested, lc.locksAcquired = s.counts.Requested.Load(), s.counts.Acquired.Load()
	}
	return lc
}

func (s *graphSys) rows() int {
	t, err := s.g.R.Snapshot()
	if err != nil {
		return 0
	}
	return len(t)
}

func (s *graphSys) trace(*tracer) error {
	s.counts = &workload.LockCounts{}
	s.g.Counts = s.counts
	return nil
}

// check verifies the diamond's invariants (both sides hold the same
// edges), then runs the differential sequence on four seeded nodes.
func (s *graphSys) check() error {
	if _, err := s.g.R.VerifyWellFormed(); err != nil {
		return err
	}
	return differential(s.g.R, []string{"src", "dst"}, sampleIDs(s.seed, graphNodes, 4), graphNodes, s.seed)
}

func (s *graphSys) close() error { return nil }

// sampleIDs draws n distinct seeded ids below keySpace.
func sampleIDs(seed uint64, keySpace int64, n int) []int64 {
	state := seed ^ diffSalt
	seen := map[int64]bool{}
	var ids []int64
	for len(ids) < n {
		id := int64(workload.SplitMix64(&state) % uint64(keySpace))
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return ids
}

// differential loads every tuple of r whose columns cols hold one of ids
// into a core.Reference, then runs diffOps seeded inserts, removes and
// queries against both, each binding one of cols to one of ids, so the
// reference holds every tuple an operation can see. Every result must
// match. cols must be key columns of r's functional dependency.
func differential(r *core.Relation, cols []string, ids []int64, keySpace int64, seed uint64) error {
	spec := r.Spec()
	key, val := spec.FDs[0].From, spec.FDs[0].To
	sampled := map[int64]bool{}
	for _, id := range ids {
		sampled[id] = true
	}
	all, err := r.Snapshot()
	if err != nil {
		return err
	}
	ref := core.NewReference(spec)
	for _, t := range all {
		for _, c := range cols {
			if sampled[t.MustGet(c).(int64)] {
				if _, err := ref.Insert(t.Project(key), t.Project(val)); err != nil {
					return err
				}
				break
			}
		}
	}
	all = nil

	state := seed ^ diffSalt
	draw := func(n int) int { return int(workload.SplitMix64(&state) % uint64(n)) }
	for i := 0; i < diffOps; i++ {
		c, id := cols[draw(len(cols))], ids[draw(len(ids))]
		bound := rel.T(c, id)
		// Half the mutations target a stored tuple, so removes find rows.
		vals := map[string]any{}
		for _, col := range spec.Columns {
			vals[col] = int64(draw(int(keySpace)))
		}
		vals[c] = id
		if draw(2) == 0 {
			if stored, err := ref.Query(bound, spec.Columns...); err == nil && len(stored) > 0 {
				t := stored[draw(len(stored))]
				for _, col := range spec.Columns {
					vals[col] = t.MustGet(col)
				}
			}
		}
		pick := func(cols []string) rel.Tuple {
			var pairs []any
			for _, col := range cols {
				pairs = append(pairs, col, vals[col])
			}
			return rel.T(pairs...)
		}
		var got, want any
		var gerr, werr error
		switch draw(3) {
		case 0:
			got, gerr = r.Insert(pick(key), pick(val))
			want, werr = ref.Insert(pick(key), pick(val))
		case 1:
			got, gerr = r.Remove(pick(key))
			want, werr = ref.Remove(pick(key))
		default:
			var out []string
			for _, col := range spec.Columns {
				if col != c {
					out = append(out, col)
				}
			}
			var g, w []rel.Tuple
			g, gerr = r.Query(bound, out...)
			w, werr = ref.Query(bound, out...)
			got, want = sortedString(g), sortedString(w)
		}
		if gerr != nil || werr != nil {
			return fmt.Errorf("check op %d: relation error %v, reference error %v", i, gerr, werr)
		}
		if got != want {
			return fmt.Errorf("check op %d on %s=%d: relation %v, reference %v", i, c, id, got, want)
		}
	}
	return nil
}

// sortedString renders tuples in canonical order for comparison.
func sortedString(ts []rel.Tuple) string {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
	return fmt.Sprint(ts)
}

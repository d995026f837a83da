package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	dkprof "repro/internal/dk"
	"repro/internal/generate"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/pkg/dk"
	"repro/pkg/dkapi"
)

// census-analysis is dkanalyze-style cold analysis of router-scale
// topologies: each job reads one topology from text into a fresh
// session, extracts its full 3K profile with sampled metrics, and builds
// a compared 2K pseudograph from it. One closed-loop caller runs rounds
// that visit every pool member once, smallest first. The pool is a fixed
// ladder of sizes, so its degree-class counts straddle the census's
// dense/map switch.
//
// Every job starts from a collected heap, as a fresh dkanalyze process
// starts from an empty one. Without that, the high-water RSS is set by
// whatever garbage the previous job left when the largest job peaks,
// and peak_rss_mb moved by a quarter from seed to seed.

const (
	censusSample = 256
	// censusRoundTime is a round's nominal duration, about what one took
	// on the reference machine (see README.md); it sets the window's round
	// count (see windowRounds).
	censusRoundTime = 7500 * time.Millisecond
)

type censusInput struct {
	name  string
	text  string
	n, m  int
	pairs int64 // Σ C(k,2), for the census identity
	// The traced path's copy of the parsed graph, and the hash pkg/dk
	// gives it; set on traced runs only.
	csr    *graph.CSR
	labels []int
	hash   string
}

type censusJob struct {
	Input int
	Seed  int64
}

// censusStream is the job stream: a pure function of the workload seed
// and the pool size.
type censusStream struct {
	rng  *rand.Rand
	pool int
}

func newCensusStream(seed int64, pool int) *censusStream {
	return &censusStream{rand.New(rand.NewSource(seed ^ 0x63656e737573)), pool}
}

func (s *censusStream) round() []censusJob {
	jobs := make([]censusJob, s.pool)
	for i := range jobs {
		jobs[i] = censusJob{Input: i, Seed: s.rng.Int63()}
	}
	return jobs
}

// censusSizes is the pool's node-count ladder, log-spaced.
func censusSizes(tiny bool) []int {
	lo, hi, k := 4000.0, 55000.0, 7
	if tiny {
		lo, hi, k = 300, 1500, 3
	}
	sizes := make([]int, k)
	for i := range sizes {
		sizes[i] = int(math.Round(lo * math.Pow(hi/lo, float64(i)/float64(k-1))))
	}
	return sizes
}

type censusBench struct {
	pool []censusInput
	seed int64
}

func setupCensus(cfg config) (bench, error) {
	b := &censusBench{seed: cfg.seed}
	for i, n := range censusSizes(cfg.tiny) {
		edges := cutoffPowerLaw(n, rand.New(rand.NewSource(cfg.seed*1000+int64(i))))
		in := censusInput{name: fmt.Sprintf("census-%d", i), text: edgeText(edges), m: len(edges), pairs: degreePairs(edges)}
		in.n = nodeCount(edges)
		fmt.Fprintf(cfg.log, "input %s n=%d m=%d bytes=%d sha256=%s\n", in.name, in.n, in.m, len(in.text), inputDigest(in.text))
		if cfg.trace {
			g, err := dk.ParseGraph(in.text)
			if err != nil {
				return nil, err
			}
			in.hash = g.Hash()
			if in.csr, in.labels, err = parseCSR(in.text); err != nil {
				return nil, err
			}
		}
		b.pool = append(b.pool, in)
	}
	// Warm-up: one job on the smallest input.
	if err := b.job(censusJob{Input: 0, Seed: 1}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

func (b *censusBench) close() error { return nil }

func (b *censusBench) measure(minDur time.Duration, rounds int, rec *recorder) *window {
	w := &window{}
	stream := newCensusStream(b.seed, len(b.pool))
	want := windowRounds(rounds, minDur, censusRoundTime)
	clk := startClock()
	for w.rounds < want {
		for _, j := range stream.round() {
			runtime.GC()
			start := time.Now()
			var err error
			var layer time.Duration
			if rec == nil {
				err = b.job(j)
			} else {
				id, end := rec.begin(0, spanJob)
				rec.attr(id, "input", b.pool[j.Input].name)
				err = b.tracedJob(j, rec, id)
				end()
				layer = rec.childTime(id)
			}
			w.record(b.pool[j.Input].name, time.Since(start), layer, err)
		}
		w.rounds++
	}
	clk.stop(w)
	return w
}

// job is one caller request through pkg/dk, in a fresh session.
func (b *censusBench) job(j censusJob) error {
	in := &b.pool[j.Input]
	ctx := context.Background()
	g, err := dk.ParseGraph(in.text)
	if err != nil {
		return err
	}
	s := dk.NewSession()
	ext, err := s.Extract(ctx, g, dk.ExtractOptions{D: dkapi.Int(3), Metrics: true, Sample: censusSample})
	if err != nil {
		return err
	}
	if err := in.checkExtract(ext.Graph, ext.Profile, ext.Summary != nil); err != nil {
		return err
	}
	gen, err := s.Generate(ctx, g, dk.GenerateOptions{D: dkapi.Int(2), Method: "pseudograph", Compare: true, Seed: j.Seed})
	if err != nil {
		return err
	}
	return checkPseudograph(gen.Result.Replicas)
}

func (in *censusInput) checkExtract(gi dkapi.GraphInfo, p *dkapi.Profile, haveSummary bool) error {
	if gi.N != in.n || gi.M != in.m {
		return fmt.Errorf("%s: extract reports n=%d m=%d, input has n=%d m=%d", in.name, gi.N, gi.M, in.n, in.m)
	}
	if !haveSummary {
		return fmt.Errorf("%s: metric summary missing", in.name)
	}
	_, err := checkCensus(p, in.pairs)
	return err
}

// checkPseudograph requires the one replica asked for, with its D_2.
// The pseudograph erases loops and repeated pairs, so D_2 need not be 0.
func checkPseudograph(reps []dkapi.ReplicaInfo) error {
	if len(reps) != 1 {
		return fmt.Errorf("pseudograph: %d replicas, asked for 1", len(reps))
	}
	if d := reps[0].Distance; d == nil || math.IsNaN(*d) || *d < 0 {
		return fmt.Errorf("pseudograph: D_2 = %v", d)
	}
	return nil
}

// tracedJob does job's work on the traced path (see tracedpath.go):
// parse with dk.ParseGraph; in a fresh cache, intern the graph as each
// Session call does, extract d = 3 (census inside) and the sampled
// summary; restrict the profile to d = 2 and build the pseudograph as
// the executor does; then intern the replica as a detached entry and
// extract and compare its profile.
func (b *censusBench) tracedJob(j censusJob, rec *recorder, job int) error {
	in := &b.pool[j.Input]
	var g *dk.Graph
	var err error
	rec.do(job, spanIngest, func() { g, err = dk.ParseGraph(in.text) })
	if err != nil {
		return err
	}
	if g.Hash() != in.hash {
		return fmt.Errorf("%s: parsed hash %s, setup hash %s", in.name, g.Hash(), in.hash)
	}
	rec.count(func(n *counters) { n.ingestBytes += int64(len(in.text)) })
	cache := service.NewCache(sessionCacheEntries)
	src, err := internTraced(rec, job, cache, in.csr, in.labels, in.hash)
	if err != nil {
		return err
	}
	p, err := extractTraced(rec, job, src, 3)
	if err != nil {
		return err
	}
	if err := summaryTraced(rec, job, src, censusSample); err != nil {
		return err
	}
	if err := in.checkExtract(dkapi.GraphInfo{N: g.N(), M: g.M()}, p, true); err != nil {
		return err
	}
	if _, err := internTraced(rec, job, cache, in.csr, in.labels, in.hash); err != nil {
		return err
	}
	var p2 *dkprof.Profile
	rec.do(job, spanExtract, func() { p2, err = p.Restrict(2) })
	if err != nil {
		return err
	}
	var reps []*graph.CSR
	rec.do(job, spanConstruct, func() {
		reps, err = generate.Replicas(1, j.Seed, func(_ int, rng *rand.Rand) (*graph.CSR, error) {
			return core.Generate(p2, 2, core.MethodPseudograph, core.Options{Rng: rng})
		})
	})
	if err != nil {
		return err
	}
	var rep *service.Entry
	rec.do(job, spanHash, func() { rep = service.NewDetachedEntry(reps[0]) })
	rp, err := extractTraced(rec, job, rep, 2)
	if err != nil {
		return err
	}
	var dist float64
	rec.do(job, spanExtract, func() { dist, err = dkprof.Distance(p2, rp, 2) })
	if err != nil {
		return err
	}
	n, m := rep.Size()
	return checkPseudograph([]dkapi.ReplicaInfo{{N: n, M: m, Distance: &dist}})
}

// nodeCount is the number of distinct endpoints in an edge list.
func nodeCount(edges [][2]int32) int {
	seen := map[int32]struct{}{}
	for _, e := range edges {
		seen[e[0]] = struct{}{}
		seen[e[1]] = struct{}{}
	}
	return len(seen)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/store"
	"repro/pkg/dk"
	"repro/pkg/dkapi"
	"repro/pkg/dkclient"
)

// serve-mixed exercises the serving layers with writes beside reads: an
// in-process server with a disk store, on loopback, driven through
// pkg/dkclient by two closed-loop callers. The pool holds about 1.5×
// the server's cache entries, so the mix keeps evicting from memory and
// reading back from disk.

const (
	serveCallers = 2
	serveSample  = 64
	servePoll    = 10 * time.Millisecond
	serveRetain  = 64
)

// Request kinds and their weights in the mix.
const (
	reqUpload   = iota // text upload, extract d ≤ 2 with sampled metrics
	reqExtract3        // text upload, extract d = 3
	reqCompare         // compare two pool graphs by hash
	reqGenerate        // async d = 2 generate of 2 replicas: submit, then poll
	reqStats           // GET /v1/stats
)

// serveWeights is the mix of dkload's default "steady" profile
// (internal/load: extract 5, generate 3, compare 3, pipeline 2, stats 2)
// without its pipeline requests. Its extracts draw d uniformly from
// 0..3, so a quarter of them are the d = 3 kind; weights are in 52nds.
var serveWeights = []int{reqUpload: 15, reqExtract3: 5, reqCompare: 12, reqGenerate: 12, reqStats: 8}

var serveKinds = []string{"upload", "extract_d3", "compare", "generate", "stats"}

// serviceRoutes maps the per-route metric names to the server's mux
// patterns, as keyed in GET /v1/stats.
var serviceRoutes = []struct{ name, pattern string }{
	{"extract", "POST /v1/extract"},
	{"compare", "POST /v1/compare"},
	{"generate", "POST /v1/generate"},
	{"job", "GET /v1/jobs/{id}"},
	{"stats", "GET /v1/stats"},
}

type serveReq struct {
	Kind int
	A, B int // pool indices
	D    int // upload depth
	Seed int64
}

// serveStream is one caller's request stream: a pure function of the
// workload seed, the caller index and the pool size. Kinds are dealt
// from a shuffled deck that holds each kind as many times as its weight,
// so every 52 requests hold the exact mix. Each kind deals its pool
// graphs from a shuffled deck of the whole pool too, and uploads their
// depths from a deck of 0, 1 and 2, so every window sends each kind
// nearly the same sizes. Drawn independently, the number of generate
// requests in a window — most of the work — swung by about 6% from seed
// to seed, and the mean size of their graphs by about 10%.
type serveStream struct {
	rng    *rand.Rand
	pool   int
	deck   []int
	graphs [][]int // per kind, the pool indices still to deal
	depths []int
}

func newServeStream(seed int64, caller, pool int) *serveStream {
	return &serveStream{
		rng:    rand.New(rand.NewSource(seed*31 + int64(caller) ^ 0x7365727665)),
		pool:   pool,
		graphs: make([][]int, len(serveWeights)),
	}
}

// deal takes the next card from deck, first refilling it with a
// shuffled copy of full when it is empty.
func (s *serveStream) deal(deck *[]int, full func() []int) int {
	if len(*deck) == 0 {
		d := full()
		s.rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
		*deck = d
	}
	d := *deck
	*deck = d[:len(d)-1]
	return d[len(d)-1]
}

func (s *serveStream) next() serveReq {
	kind := s.deal(&s.deck, func() []int {
		var d []int
		for kind, w := range serveWeights {
			for i := 0; i < w; i++ {
				d = append(d, kind)
			}
		}
		return d
	})
	r := serveReq{Kind: kind}
	r.A = s.deal(&s.graphs[kind], func() []int {
		d := make([]int, s.pool)
		for i := range d {
			d[i] = i
		}
		return d
	})
	if kind == reqUpload {
		r.D = s.deal(&s.depths, func() []int { return []int{0, 1, 2} })
	}
	r.B = (r.A + 1 + s.rng.Intn(s.pool-1)) % s.pool
	r.Seed = s.rng.Int63()
	return r
}

type serveInput struct {
	text  string
	hash  string // computed locally; the server must return the same
	n, m  int
	pairs int64
}

type serveBench struct {
	pool   []serveInput
	dir    string
	st     *store.Store
	srv    *service.Server
	hs     *http.Server
	served chan error
	tr     *http.Transport
	client *dkclient.Client
	closed bool
	// streams are the callers' request streams. A traced window continues
	// them rather than replaying them: the server's cache and store keep
	// their state between windows, so replayed requests would all hit.
	streams []*serveStream

	mu          sync.Mutex
	uploaded    int64 // text bytes uploaded in the current window
	queueWaits  []float64
	census      []float64 // latency of extract-d3 requests that ran a census
	censusClass int
}

func servePool(tiny bool) (size int, lo, hi float64, cache int) {
	if tiny {
		return 12, 100, 300, 8
	}
	return 96, 1000, 4000, 64
}

func setupServe(cfg config) (bench, error) {
	size, lo, hi, cache := servePool(cfg.tiny)
	b := &serveBench{}
	for c := 0; c < serveCallers; c++ {
		b.streams = append(b.streams, newServeStream(cfg.seed, c, size))
	}
	for i := 0; i < size; i++ {
		n := int(math.Round(lo * math.Pow(hi/lo, float64(i)/float64(size-1))))
		edges := holmeKim(n, 2.55, 0.6, rand.New(rand.NewSource(cfg.seed*1000+int64(i))))
		in := serveInput{text: edgeText(edges), m: len(edges), n: n, pairs: degreePairs(edges)}
		g, err := dk.ParseGraph(in.text)
		if err != nil {
			return nil, err
		}
		in.hash = g.Hash()
		fmt.Fprintf(cfg.log, "input serve-%d n=%d m=%d bytes=%d sha256=%s\n", i, in.n, in.m, len(in.text), inputDigest(in.text))
		b.pool = append(b.pool, in)
	}
	dir, err := os.MkdirTemp(cfg.outDir, "serve-store-")
	if err != nil {
		return nil, err
	}
	b.dir = dir
	if b.st, err = store.Open(dir); err != nil {
		b.close()
		return nil, err
	}
	// Finished jobs keep their replica graphs until they leave retention.
	// With the default 256 retained jobs, memory grows through the whole
	// window and peak RSS would follow throughput; 64 is reached early.
	b.srv = service.New(service.Options{Store: b.st, CacheEntries: cache, JobRetain: serveRetain})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.close()
		return nil, err
	}
	b.hs = &http.Server{Handler: b.srv}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	b.tr = &http.Transport{MaxIdleConnsPerHost: serveCallers}
	// Jobs are polled every 10 ms rather than on the client's default
	// backoff (50 ms growing to 2 s), so a generate job's latency
	// resolves to 10 ms instead of jumping between backoff steps.
	b.client, err = dkclient.New("http://"+ln.Addr().String(), dkclient.Options{
		HTTPClient:  &http.Client{Transport: tracingTransport{b.tr}},
		PollInitial: servePoll,
		PollMax:     servePoll,
	})
	if err != nil {
		b.close()
		return nil, err
	}
	// Warm-up: upload the whole pool, so every hash reference resolves
	// (from memory or disk) and the store holds every graph.
	ctx := context.Background()
	for i := range b.pool {
		if err := b.upload(ctx, i, 0, false); err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return b, nil
}

func (b *serveBench) close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	var errs []error
	if b.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, b.hs.Shutdown(ctx))
		cancel()
		if err := <-b.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if b.tr != nil {
		b.tr.CloseIdleConnections()
	}
	if b.srv != nil {
		b.srv.Close()
	}
	if b.st != nil {
		errs = append(errs, b.st.Close())
	}
	if b.dir != "" {
		errs = append(errs, os.RemoveAll(b.dir))
	}
	return errors.Join(errs...)
}

func (b *serveBench) measure(minDur time.Duration, _ int, rec *recorder) *window {
	w := &window{}
	b.mu.Lock()
	b.queueWaits, b.census, b.censusClass, b.uploaded = nil, nil, 0, 0
	b.mu.Unlock()
	var before serverSnapshot
	if rec != nil {
		var err error
		if before, err = b.snapshot(); err != nil {
			w.record("stats", 0, 0, fmt.Errorf("stats before the traced window: %w", err))
			return w
		}
	}
	clk := startClock()
	var wg sync.WaitGroup
	for c := 0; c < serveCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stream := b.streams[c]
			for time.Since(clk.wall) < minDur {
				r := stream.next()
				ctx := context.Background()
				id, end := rec.begin(0, spanJob)
				rec.attr(id, "kind", serveKinds[r.Kind])
				if rec != nil {
					ctx = context.WithValue(ctx, jobSpanKey{}, spanRef{rec, id})
				}
				start := time.Now()
				err := b.request(ctx, r)
				lat := time.Since(start)
				end()
				var layer time.Duration
				if rec != nil {
					layer = rec.childTime(id)
				}
				w.record(serveKinds[r.Kind], lat, layer, err)
			}
		}(c)
	}
	wg.Wait()
	clk.stop(w)
	if rec != nil {
		after, err := b.snapshot()
		if err != nil {
			w.record("stats", 0, 0, fmt.Errorf("stats after the traced window: %w", err))
			return w
		}
		w.extras = b.serverLayers(before, after, w, rec)
	}
	return w
}

func (b *serveBench) request(ctx context.Context, r serveReq) error {
	switch r.Kind {
	case reqUpload:
		return b.upload(ctx, r.A, r.D, true)
	case reqExtract3:
		start := time.Now()
		ext, err := b.client.ExtractEdges(ctx, b.pool[r.A].text, dkclient.ExtractOptions{D: dkapi.Int(3)})
		if err != nil {
			return err
		}
		b.addUploaded(r.A)
		if err := b.checkInfo(r.A, ext.Graph); err != nil {
			return err
		}
		classes, err := checkCensus(ext.Profile, b.pool[r.A].pairs)
		if err != nil {
			return err
		}
		if !ext.Cached {
			b.mu.Lock()
			b.census = append(b.census, ms(time.Since(start)))
			b.censusClass += classes
			b.mu.Unlock()
		}
		return nil
	case reqCompare:
		res, err := b.client.Compare(ctx, dkapi.CompareRequest{
			A: dkapi.GraphRef{Hash: b.pool[r.A].hash}, B: dkapi.GraphRef{Hash: b.pool[r.B].hash},
			D: dkapi.Int(2), Sample: serveSample,
		})
		if err != nil {
			return err
		}
		if err := b.checkInfo(r.A, res.A); err != nil {
			return err
		}
		if err := b.checkInfo(r.B, res.B); err != nil {
			return err
		}
		if len(res.Distances) != 3 {
			return fmt.Errorf("compare: %d distances, want 3", len(res.Distances))
		}
		return nil
	case reqGenerate:
		return b.generate(ctx, r)
	default:
		st, err := b.client.Stats(ctx)
		if err != nil {
			return err
		}
		if st.Version == "" {
			return fmt.Errorf("stats: empty version")
		}
		return nil
	}
}

// upload posts a pool graph's text for extraction at depth d (with
// sampled metrics when metrics is set) and checks the returned hash.
func (b *serveBench) upload(ctx context.Context, i, d int, metrics bool) error {
	opts := dkclient.ExtractOptions{D: dkapi.Int(d)}
	if metrics {
		opts.Metrics, opts.Sample = true, serveSample
	}
	ext, err := b.client.ExtractEdges(ctx, b.pool[i].text, opts)
	if err != nil {
		return err
	}
	b.addUploaded(i)
	if err := b.checkInfo(i, ext.Graph); err != nil {
		return err
	}
	if metrics && ext.Summary == nil {
		return fmt.Errorf("upload: metric summary missing")
	}
	return nil
}

func (b *serveBench) generate(ctx context.Context, r serveReq) error {
	acc, err := b.client.SubmitGenerate(ctx, dkapi.GenerateRequest{
		Source: dkapi.GraphRef{Hash: b.pool[r.A].hash}, D: dkapi.Int(2), Replicas: 2, Seed: r.Seed, Compare: true,
	})
	if err != nil {
		return err
	}
	env, err := b.client.WaitJob(ctx, acc.JobID)
	if err != nil {
		return err
	}
	var res dkapi.GenerateResult
	if err := json.Unmarshal(env.Result, &res); err != nil {
		return fmt.Errorf("generate: decode result: %w", err)
	}
	if err := b.checkInfo(r.A, res.Source); err != nil {
		return err
	}
	if len(res.Replicas) != 2 {
		return fmt.Errorf("generate: %d replicas, asked for 2", len(res.Replicas))
	}
	in := &b.pool[r.A]
	for _, rep := range res.Replicas {
		if rep.N != in.n || rep.M != in.m {
			return fmt.Errorf("generate replica %d: n=%d m=%d, source n=%d m=%d", rep.Index, rep.N, rep.M, in.n, in.m)
		}
		if rep.Distance == nil || *rep.Distance != 0 {
			return fmt.Errorf("generate replica %d: D_2 = %v, want 0", rep.Index, rep.Distance)
		}
	}
	if env.Started != nil {
		b.mu.Lock()
		b.queueWaits = append(b.queueWaits, ms(env.Started.Sub(env.Submitted)))
		b.mu.Unlock()
	}
	return nil
}

func (b *serveBench) addUploaded(i int) {
	b.mu.Lock()
	b.uploaded += int64(len(b.pool[i].text))
	b.mu.Unlock()
}

// checkInfo requires the server's hash and size for pool graph i to
// match what the benchmark computed locally.
func (b *serveBench) checkInfo(i int, gi dkapi.GraphInfo) error {
	in := &b.pool[i]
	if gi.Hash != in.hash {
		return fmt.Errorf("pool graph %d: server hash %s, local hash %s", i, gi.Hash, in.hash)
	}
	if gi.N != in.n || gi.M != in.m {
		return fmt.Errorf("pool graph %d: server n=%d m=%d, local n=%d m=%d", i, gi.N, gi.M, in.n, in.m)
	}
	return nil
}

// serverSnapshot is the server's statistics plus the store's size on
// disk, read before and after a traced window.
type serverSnapshot struct {
	stats *dkapi.StatsResponse
	bytes int64
}

func (b *serveBench) snapshot() (serverSnapshot, error) {
	st, err := b.client.Stats(context.Background())
	if err != nil {
		return serverSnapshot{}, err
	}
	var n int64
	err = filepath.WalkDir(b.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			n += fi.Size()
		}
		return err
	})
	return serverSnapshot{st, n}, err
}

// serverLayers turns the statistics diff around a traced window into
// the service, store and in-server layer metrics. The server's phase
// totals do not separate the census from d ≤ 2 extraction, so
// subgraphs.census_* come from the extract-d3 responses instead: the
// requests that ran a census, their classes, and their client latency.
func (b *serveBench) serverLayers(before, after serverSnapshot, traced *window, rec *recorder) map[string]float64 {
	jobs := float64(len(traced.lats))
	x, y := before.stats, after.stats
	out := map[string]float64{}
	var reqs, routeMS, sent float64
	for pattern, r := range y.Routes {
		p := x.Routes[pattern]
		reqs += float64(r.Count - p.Count)
		routeMS += r.TotalMS - p.TotalMS
		sent += float64(r.BytesSent - p.BytesSent)
	}
	for _, r := range serviceRoutes {
		cur, prev := y.Routes[r.pattern], x.Routes[r.pattern]
		out["service.route_ms."+r.name] = ratio(cur.TotalMS-prev.TotalMS, float64(cur.Count-prev.Count))
	}
	// phases sums the diff of the pipeline phases ("op.phase") that match.
	phases := func(match func(string) bool) (total, count float64) {
		for k, p := range y.Phases {
			if match(k) {
				total += p.TotalMS - x.Phases[k].TotalMS
				count += float64(p.Count - x.Phases[k].Count)
			}
		}
		return total, count
	}
	self, _ := rec.layerTotals()
	out["service.transport_ms"] = ratio(ms(self[spanHTTP])-routeMS, reqs)
	out["service.response_kb"] = ratio(sent/1024, reqs)
	c, pc := y.Cache, x.Cache
	out["service.cache_hit_ratio"] = ratio(float64(c.Hits-pc.Hits), float64(c.Hits-pc.Hits+c.Misses-pc.Misses))
	out["service.disk_hit_ratio"] = ratio(float64(c.DiskHits-pc.DiskHits), float64(c.DiskHits-pc.DiskHits+c.DiskMisses-pc.DiskMisses))
	if y.Store != nil && x.Store != nil {
		s, ps := y.Store, x.Store
		out["store.reads"] = float64(s.GraphReads + s.ProfileReads - ps.GraphReads - ps.ProfileReads)
		out["store.writes"] = float64(s.GraphWrites + s.ProfileWrites - ps.GraphWrites - ps.ProfileWrites)
	}
	out["store.write_kb"] = float64(after.bytes-before.bytes) / 1024
	extract, _ := phases(func(k string) bool { return strings.HasSuffix(k, ".extract") })
	out["dk.extract_ms"] = ratio(extract, jobs)
	summary, summaries := phases(func(k string) bool { return strings.HasSuffix(k, ".metrics") })
	out["metrics.summary_ms"] = ratio(summary, jobs)
	out["metrics.summary_calls"] = summaries
	rewire := y.Phases["generate.construct"].TotalMS - x.Phases["generate.construct"].TotalMS
	out["generate.rewire_ms.d2"] = ratio(rewire, jobs)
	// Ingest runs in the extract handler, before the pipeline: the
	// route's time outside its phases is parse, hash, intern with store
	// write-through, and response encoding.
	extractPhases, _ := phases(func(k string) bool { return strings.HasPrefix(k, "extract.") })
	er, per := y.Routes["POST /v1/extract"], x.Routes["POST /v1/extract"]
	ingest := er.TotalMS - per.TotalMS - extractPhases
	out["graph.ingest_ms"] = ratio(ingest, jobs)
	out["graph.ingest_calls"] = float64(er.Count - per.Count)
	b.mu.Lock()
	defer b.mu.Unlock()
	out["graph.ingest_mb_per_s"] = ratio(float64(b.uploaded)/1e6, ingest/1000)
	out["service.queue_wait_ms"] = mean(b.queueWaits)
	var census float64
	for _, v := range b.census {
		census += v
	}
	out["subgraphs.census_ms"] = ratio(census, jobs)
	out["subgraphs.census_calls"] = float64(len(b.census))
	out["subgraphs.census_classes"] = float64(b.censusClass)
	return out
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return ratio(s, float64(len(v)))
}

// jobSpanKey carries the current job's span through a request context,
// so the transport can record each HTTP round trip under it.
type jobSpanKey struct{}

type spanRef struct {
	rec *recorder
	id  int
}

// tracingTransport records a service.http span per round trip of a
// traced job: from sending the request until the whole response body has
// arrived. It reads the body before handing it on, so the client's JSON
// decoding stays outside the span.
type tracingTransport struct{ base http.RoundTripper }

func (t tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := req.Context().Value(jobSpanKey{}).(spanRef)
	if !ok {
		return t.base.RoundTrip(req)
	}
	_, end := ref.rec.begin(ref.id, spanHTTP)
	defer end()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

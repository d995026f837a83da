package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/generate"
)

// recorder keeps the traced run's spans in memory; they are written out
// as JSONL when the run ends. Spans are recorded by the benchmark around
// its own calls into each layer, never inside the program. A layer span
// nests only under the job that caused it or under another layer call it
// contains (the census inside a depth-3 extraction), and siblings never
// overlap, so a span's self time is its duration minus its children's.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	n     counters
}

type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"` // 0 for a job span
	Name   string            `json:"name"`
	Start  int64             `json:"start_us"`
	Dur    int64             `json:"dur_us"`
	Self   int64             `json:"self_us"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// counters are layer work counts recorded beside the spans.
type counters struct {
	ingestBytes                               int64
	rewireAttempts, rewireAccepted, rewireJDD int
	censusClasses                             int
}

// Span names; a layer span "x.y" is reported as the metric "x.y_ms".
const (
	spanJob       = "job"
	spanIngest    = "graph.ingest" // text → CSR → content hash
	spanHash      = "graph.hash"   // content hash of a built graph; reported under graph.ingest
	spanExtract   = "dk.extract"   // d ≤ 2 extraction and D_d distances
	spanCensus    = "subgraphs.census"
	spanConstruct = "generate.construct"
	spanSummary   = "metrics.summary"
	spanHTTP      = "service.http" // one HTTP round trip to the server
)

func rewireSpan(d int) string { return fmt.Sprintf("generate.rewire.d%d", d) }

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent (0 for a job span) and returns its id
// and the function that closes it. On a nil recorder both are free.
func (r *recorder) begin(parent int, name string) (int, func()) {
	if r == nil {
		return 0, func() {}
	}
	start := time.Now()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: start.Sub(r.t0).Microseconds()})
	r.mu.Unlock()
	return id, func() {
		d := time.Since(start)
		r.mu.Lock()
		r.spans[id-1].Dur = d.Microseconds()
		r.mu.Unlock()
	}
}

// do runs f inside a span.
func (r *recorder) do(parent int, name string, f func()) {
	_, end := r.begin(parent, name)
	f()
	end()
}

// attr annotates a span.
func (r *recorder) attr(id int, k, v string) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	s := &r.spans[id-1]
	if s.Attrs == nil {
		s.Attrs = map[string]string{}
	}
	s.Attrs[k] = v
	r.mu.Unlock()
}

// childTime is the summed duration of a span's direct children: for a
// job span, the job's time inside layer calls.
func (r *recorder) childTime(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t int64
	for _, s := range r.spans[id:] {
		if s.Parent == id {
			t += s.Dur
		}
	}
	return time.Duration(t) * time.Microsecond
}

func (r *recorder) count(f func(*counters)) {
	r.mu.Lock()
	f(&r.n)
	r.mu.Unlock()
}

func (r *recorder) addRewire(st generate.RewireStats) {
	r.count(func(n *counters) {
		n.rewireAttempts += st.Attempts
		n.rewireAccepted += st.Accepted
		n.rewireJDD += st.Rejected.JDDMismatch
	})
}

// layerTotals fills in every span's self time and returns, per span
// name, the summed self time and the number of spans.
func (r *recorder) layerTotals() (map[string]time.Duration, map[string]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		children[s.Parent] += s.Dur
	}
	self := map[string]time.Duration{}
	calls := map[string]int{}
	for i := range r.spans {
		s := &r.spans[i]
		s.Self = s.Dur - children[s.ID]
		self[s.Name] += time.Duration(s.Self) * time.Microsecond
		calls[s.Name]++
	}
	return self, calls
}

func (r *recorder) writeJSONL(path string) error {
	r.layerTotals()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayer assembles a traced run's per-layer metrics. Layer times are
// self-time milliseconds per completed traced job; counts are totals
// over the traced window. The traced window's extras — what the
// workload measures outside the span recorder, such as server
// statistics — override the values of the same names.
func perLayer(plain, traced *window, rec *recorder) map[string]metric {
	self, calls := rec.layerTotals()
	jobs := float64(len(traced.lats))
	perJob := func(d time.Duration) float64 {
		if jobs == 0 {
			return 0
		}
		return ms(d) / jobs
	}
	n := rec.n
	ingest := self[spanIngest] + self[spanHash]
	out := map[string]metric{
		"graph.ingest_ms":                  {perJob(ingest), "ms"},
		"graph.ingest_calls":               {float64(calls[spanIngest] + calls[spanHash]), "count"},
		"graph.ingest_mb_per_s":            {ratio(float64(n.ingestBytes)/1e6, self[spanIngest].Seconds()), "MB/s"},
		"dk.extract_ms":                    {perJob(self[spanExtract]), "ms"},
		"subgraphs.census_ms":              {perJob(self[spanCensus]), "ms"},
		"subgraphs.census_calls":           {float64(calls[spanCensus]), "count"},
		"subgraphs.census_classes":         {float64(n.censusClasses), "count"},
		"generate.construct_ms":            {perJob(self[spanConstruct]), "ms"},
		"generate.rewire_attempts":         {float64(n.rewireAttempts), "count"},
		"generate.rewire_accept_ratio":     {ratio(float64(n.rewireAccepted), float64(n.rewireAttempts)), "ratio"},
		"generate.rewire_jdd_reject_ratio": {ratio(float64(n.rewireJDD), float64(n.rewireAttempts)), "ratio"},
		"metrics.summary_ms":               {perJob(self[spanSummary]), "ms"},
		"metrics.summary_calls":            {float64(calls[spanSummary]), "count"},
		"service.transport_ms":             {0, "ms"},
		"service.queue_wait_ms":            {0, "ms"},
		"service.cache_hit_ratio":          {0, "ratio"},
		"service.disk_hit_ratio":           {0, "ratio"},
		"service.response_kb":              {0, "kB"},
		"store.reads":                      {0, "count"},
		"store.writes":                     {0, "count"},
		"store.write_kb":                   {0, "kB"},
		"parallel.core_utilization":        {coreUtilization(plain), "ratio"},
	}
	for d := 0; d <= 3; d++ {
		out[fmt.Sprintf("generate.rewire_ms.d%d", d)] = metric{perJob(self[rewireSpan(d)]), "ms"}
	}
	for _, r := range serviceRoutes {
		out["service.route_ms."+r.name] = metric{0, "ms"}
	}
	plainRate := ratio(float64(len(plain.lats)), plain.wall.Seconds())
	out["trace.overhead_ratio"] = metric{ratio(ratio(jobs, traced.wall.Seconds()), plainRate), "ratio"}
	// Job time outside every layer span: snapshot copies, clones, result
	// assembly and, for the service, client-side decoding.
	plainP50, _, _, _ := plain.latencyStats()
	out["pipeline.unaccounted_ms"] = metric{plainP50 - median(traced.layerMS), "ms"}
	for k, v := range traced.extras {
		m, ok := out[k]
		if !ok {
			panic("perfbench: extras name an undeclared per-layer metric " + k)
		}
		m.Value = v
		out[k] = m
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

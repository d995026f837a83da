// Command perfbench is the repository's end-to-end benchmark. It drives
// the surfaces users call — pkg/dk in process, and an in-process
// dkserved server over loopback HTTP through pkg/dkclient — on inputs it
// generates itself from the workload seed, checks every output, and
// prints one JSON result line last.
//
//	perfbench --workload as-ensemble --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off. With --trace 1 the run measures an untraced window, then
// replays the same job stream with a span around every call the
// benchmark makes into a layer, and reports the per-layer metrics; the
// spans are written as JSONL under .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times a trace-0 run builds its fixtures; the
// median is reported as setup_s and only the last build is measured.
const setupRepeats = 5

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool      // small inputs, for the self-tests
	outDir   string    // trace JSONL and the server's store live here
	log      io.Writer // where setup prints its inputs
}

// bench is one workload with its fixtures built.
type bench interface {
	// measure runs a window of jobs; rec == nil measures untraced.
	// Workloads with rounds start their job stream from its first job
	// and run the number of whole rounds windowRounds gives for rounds
	// and minDur. serve-mixed continues its streams and closes on time.
	measure(minDur time.Duration, rounds int, rec *recorder) *window
	close() error
}

type workloadDef struct {
	name  string
	setup func(cfg config) (bench, error)
}

var workloads = []workloadDef{
	{"as-ensemble", setupASEnsemble},
	{"census-analysis", setupCensus},
	{"serve-mixed", setupServe},
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: as-ensemble, census-analysis or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; every input and job derives from it")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for trace files and the server store")
	flag.Parse()
	cfg.trace = trace == 1
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark run, printing its report to out, and
// returns the result line.
func run(cfg config, out io.Writer) (*result, error) {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d NumCPU=%d %s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1 // setup_s is an end-to-end metric; traced runs skip it
	}
	cfg.log = out
	var b bench
	var setups []float64
	for i := 0; i < repeats; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		nb, err := def.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		b = nb
		cfg.log = io.Discard // print the inputs once
	}
	defer b.close()
	window := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		w := b.measure(window, 0, nil)
		res := w.result()
		res.Metrics = endToEnd(w)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		w.print(out, "untraced")
		printMetrics(out, res.Metrics)
		return res, b.close()
	}
	// The untraced half gives the reference the traced half is compared
	// with: the same jobs where the workload has rounds, the same
	// duration of the same mix where it does not.
	plain := b.measure(window/2, 0, nil)
	rec := newRecorder()
	traced := b.measure(window/2, plain.rounds, rec)
	plain.print(out, "untraced")
	traced.print(out, "traced")
	res := plain.result()
	tr := traced.result()
	res.Attempted += tr.Attempted
	res.Failed += tr.Failed
	res.Correct = res.Correct && tr.Correct
	res.Metrics = perLayer(plain, traced, rec)
	path := fmt.Sprintf("%s/trace-%s-%d.jsonl", cfg.outDir, cfg.workload, cfg.seed)
	if err := rec.writeJSONL(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans written to %s (%d spans)\n", path, len(rec.spans))
	printMetrics(out, res.Metrics)
	return res, b.close()
}

// printMetrics prints one "name value unit" line per metric, sorted.
func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// endToEnd derives the user-facing metrics of an untraced window.
// error_rate is 0 on a passing run, so it is carried by the result's
// attempted/failed fields and printed by window.print rather than
// reported as a metric.
func endToEnd(w *window) map[string]metric {
	done := len(w.lats)
	p50, tail, _, _ := w.latencyStats()
	cpuPerJob, perSec := 0.0, 0.0
	if done > 0 {
		cpuPerJob = ms(w.cpu) / float64(done)
		perSec = float64(done) / w.wall.Seconds()
	}
	return map[string]metric{
		"jobs_per_s":     {perSec, "1/s"},
		"job_p50_ms":     {p50, "ms"},
		"job_tail_ms":    {tail, "ms"},
		"cpu_ms_per_job": {cpuPerJob, "ms"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
	}
}

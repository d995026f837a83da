package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// window is one measured stretch of a job stream.
type window struct {
	mu        sync.Mutex
	lats      []float64            // completed jobs' latency, ms
	layerMS   []float64            // traced runs: per completed job, time inside layer spans
	byKind    map[string][]float64 // completed jobs' latency by job kind, ms
	attempted int
	failed    int
	failures  []string // the first few failure messages
	rounds    int      // whole rounds completed (0 for time-windowed workloads)
	wall      time.Duration
	cpu       time.Duration
	extras    map[string]float64 // per-layer metrics measured outside the span recorder
}

// maxFailureLog bounds the failure messages kept for printing.
const maxFailureLog = 5

// record adds one finished job. err covers both call errors and failed
// output checks; a failed job contributes no latency sample.
func (w *window) record(kind string, lat time.Duration, layer time.Duration, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.attempted++
	if err != nil {
		w.failed++
		if len(w.failures) < maxFailureLog {
			w.failures = append(w.failures, err.Error())
		}
		return
	}
	w.lats = append(w.lats, ms(lat))
	w.layerMS = append(w.layerMS, ms(layer))
	if w.byKind == nil {
		w.byKind = map[string][]float64{}
	}
	w.byKind[kind] = append(w.byKind[kind], ms(lat))
}

// windowRounds is how many whole rounds a window of a round-based
// workload holds: rounds when it is positive, else minDur over the
// workload's nominal round time, rounded, and at least one. The nominal
// time is a constant, not a measurement, so every run with one --seconds
// holds the same jobs — on any machine, and on a commit and its parent —
// and reads its tail percentile over the same sample count. Windows that
// closed on time held 3 rounds in some runs and 4 in others once a
// census round took about 8.5 s, which moved its tail from p52 to p64.
func windowRounds(rounds int, minDur, nominal time.Duration) int {
	if rounds > 0 {
		return rounds
	}
	return max(1, int(math.Round(float64(minDur)/float64(nominal))))
}

// clock brackets a window: wall time and the process's CPU time.
type clock struct {
	wall time.Time
	cpu  time.Duration
}

func startClock() clock { return clock{time.Now(), cpuTime()} }

func (c clock) stop(w *window) {
	w.wall = time.Since(c.wall)
	w.cpu = cpuTime() - c.cpu
}

// latencyStats returns the median, the tail — the latency at the highest
// nearest-rank percentile that has at least ten samples beyond it — that
// percentile, and the number of samples beyond it. With ten or fewer
// samples no percentile qualifies, and the tail is the maximum.
func (w *window) latencyStats() (p50, tail, pct float64, beyond int) {
	s := append([]float64(nil), w.lats...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0, 0
	}
	p50 = median(s)
	if n <= 10 {
		return p50, s[n-1], 100, 0
	}
	i := n - 11
	return p50, s[i], 100 * float64(i+1) / float64(n), n - 1 - i
}

func (w *window) result() *result {
	return &result{Correct: w.failed == 0, Attempted: w.attempted, Failed: w.failed}
}

// print writes the window's summary, including error_rate and the tail
// percentile with its sample count.
func (w *window) print(out io.Writer, label string) {
	p50, tail, pct, beyond := w.latencyStats()
	rate := 0.0
	if w.attempted > 0 {
		rate = float64(w.failed) / float64(w.attempted)
	}
	fmt.Fprintf(out, "%s window: %.3f s, %d rounds, %d jobs attempted, %d failed\n",
		label, w.wall.Seconds(), w.rounds, w.attempted, w.failed)
	fmt.Fprintf(out, "  error_rate %.6f ratio; job_p50_ms %.3f ms; job_tail_ms %.3f ms at p%.1f with %d of %d samples beyond\n",
		rate, p50, tail, pct, beyond, len(w.lats))
	kinds := make([]string, 0, len(w.byKind))
	for k := range w.byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(out, "  %-12s %4d jobs, p50 %10.3f ms\n", k, len(w.byKind[k]), median(w.byKind[k]))
	}
	for _, f := range w.failures {
		fmt.Fprintf(out, "  failure: %s\n", f)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of v, or 0 when v is empty; it sorts a copy.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// coreUtilization is CPU seconds over wall seconds × GOMAXPROCS.
func coreUtilization(w *window) float64 {
	if w.wall <= 0 {
		return 0
	}
	return w.cpu.Seconds() / (w.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
}

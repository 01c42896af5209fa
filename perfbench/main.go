// Command perfbench is the repository's end-to-end benchmark. It drives
// one seeded workload through the public front doors (serve.Server and
// shard.Server) on the native backend, checks every served result, and
// prints the workload's metrics as one JSON line:
//
//	bash perfbench/run.sh --workload solo --seed 1 --seconds 30 --trace 0
//
// A run measures several servers in turn, each in a child process of
// its own, and pools their measurements. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the schedule is repeated with a
// probe, request spans and a CPU profile, and the metrics are the
// per-layer ones. README.md explains the workloads and the metrics.
package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"syscall"
)

// servers is how many servers each phase of a run builds and measures
// in turn, each in a fresh process; setup_s is the median of the
// untraced phase's set-up times.
const servers = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: solo, contended or keyed")
	seed := fs.Int64("seed", 1, "seed the workload's operation stream is generated from")
	seconds := fs.Int("seconds", 30, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory the traced run writes its spans and CPU profiles to")
	server := fs.Int("server", -1, "run only server `i` of the schedule and write its measurement to stdout (how the benchmark starts each server)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := lookup(*name)
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1 || *server >= servers || fs.NArg() > 0) {
		err = fmt.Errorf("need --seconds >= 1, --trace 0 or 1, --server below %d, and no positional arguments", servers)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *server >= 0 {
		return serveOne(s, *seed, *seconds, *server, *trace == 1, *out, stdout, stderr)
	}
	return bench(s, *seed, *seconds, *trace == 1, *out, stdout, stderr)
}

func bench(s *spec, seed int64, seconds int, traced bool, out string, stdout, stderr io.Writer) int {
	res := result{Metrics: map[string]metric{}}
	plain, err := runPhase(s, seed, seconds, false, out, stderr)
	res.Attempted, res.Failed = plain.attempted, plain.failed
	if err == nil {
		res.Metrics = plain.endToEnd()
		hostLine(stdout, s, seed, seconds, plain)
	}
	if err == nil && traced {
		// The traced phase repeats the untraced schedule with the
		// instruments on; the untraced CPU cost is the base of the
		// tracing overhead.
		var tr *phase
		tr, err = runPhase(s, seed, seconds, true, out, stderr)
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		if err == nil {
			res.Metrics = tr.perLayer(res.Metrics["cpu_ms_per_kop"].Value)
		}
	}
	if err != nil {
		// A failed check reports no metrics and counts as a failure even
		// when every operation returned.
		fmt.Fprintln(stderr, "perfbench:", err)
		res.Metrics = map[string]metric{}
		res.Attempted = max(res.Attempted, 1)
		res.Failed = max(res.Failed, 1)
		printResult(stdout, res)
		return 1
	}
	res.Correct = true
	printResult(stdout, res)
	return 0
}

func printResult(w io.Writer, res result) {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	fmt.Fprintln(w, string(b))
}

// hostLine records the host shape every result was taken on.
func hostLine(w io.Writer, s *spec, seed int64, seconds int, ph *phase) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%d gomaxprocs=%d num_cpu=%d go=%s steal_pct=%.2f servers=%d windows=%d samples=%.0f\n",
		s.name, seed, seconds, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), ph.steal(), len(ph.runs), len(ph.windows()), ph.samples())
}

// phase pools the measurements of one phase's servers.
type phase struct {
	runs []*serverRun
	// attempted and failed count every operation the phase issued,
	// warm-ups and checks included.
	attempted, failed int64
}

// runPhase measures the schedule's servers one after another, each in a
// child process, and stops at the first that fails.
func runPhase(s *spec, seed int64, seconds int, traced bool, out string, stderr io.Writer) (*phase, error) {
	ph := &phase{}
	exe, err := os.Executable()
	if err != nil {
		return ph, err
	}
	for i := 0; i < servers; i++ {
		r, err := runServer(exe, s, seed, seconds, i, traced, out, stderr)
		if r != nil {
			ph.runs = append(ph.runs, r)
			ph.attempted += r.Attempted
			ph.failed += r.Failed
		}
		if err != nil {
			return ph, fmt.Errorf("server %d: %w", i+1, err)
		}
	}
	return ph, nil
}

// runServer runs server i in a child process, waits for it to exit and
// decodes the measurement it wrote. A server has a process to itself
// because a process never frees an object it has built (the apram
// package keeps every constructed object for NameOf), so a server that
// followed others in one process would run with their heaps as well as
// its own.
func runServer(exe string, s *spec, seed int64, seconds, i int, traced bool, out string, stderr io.Writer) (*serverRun, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", s.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace, "-out", out, "-server", strconv.Itoa(i))
	// The child dies with the benchmark, so no server outlives a run
	// that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, stderr
	runErr := cmd.Run()
	r := &serverRun{}
	if err := gob.NewDecoder(&buf).Decode(r); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("reading its measurement: %w", err)
	}
	if r.Err != "" {
		return r, errors.New(r.Err)
	}
	return r, runErr
}

// windows returns every server's measured windows in order.
func (ph *phase) windows() []window {
	var ws []window
	for _, r := range ph.runs {
		ws = append(ws, r.Windows...)
	}
	return ws
}

// samples is the number of latencies the phase recorded.
func (ph *phase) samples() float64 {
	var n float64
	for _, w := range ph.windows() {
		n += w.Ops
	}
	return n
}

// steal is the host's steal share of CPU time over the phase's
// measured windows, in percent.
func (ph *phase) steal() float64 {
	var t cpuStat
	for _, r := range ph.runs {
		t.Total += r.Host.Total
		t.Steal += r.Host.Steal
	}
	return t.sub(cpuStat{})
}

// endToEnd computes the end-to-end metrics. Rates, percentiles and
// per-op costs are computed per window and reported as the median over
// the windows of every server.
func (ph *phase) endToEnd() map[string]metric {
	var thr, p50, p99, cpu, allocs, rss []float64
	for _, w := range ph.windows() {
		if w.Ops == 0 {
			continue
		}
		thr = append(thr, w.Ops/w.Seconds)
		p50 = append(p50, w.P50)
		p99 = append(p99, w.P99)
		cpu = append(cpu, w.CPU/(w.Ops/1000))
		allocs = append(allocs, w.Allocs/w.Ops)
		rss = append(rss, w.PeakMB)
	}
	var setup []float64
	for _, r := range ph.runs {
		setup = append(setup, r.Setup)
	}
	return map[string]metric{
		"throughput_ops_s": {median(thr), "ops/s"},
		"latency_p50_us":   {median(p50), "us"},
		"latency_p99_us":   {median(p99), "us"},
		"cpu_ms_per_kop":   {median(cpu), "ms"},
		"allocs_per_op":    {median(allocs), "count"},
		"peak_rss_mb":      {median(rss), "MiB"},
		"setup_s":          {median(setup), "s"},
		"success_ratio":    {float64(ph.attempted-ph.failed) / float64(ph.attempted), "ratio"},
	}
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Command perfbench is the repository benchmark. It builds one named
// workload from a seed, runs the fleet simulator on it repeatedly for a
// fixed host-time budget with tracing off, checks every run's outcome,
// and prints the end-to-end metrics. With -trace 1 it instead ends with
// one traced pass (CPU profile, layer wrappers, span recorder, solver
// replay) and prints the per-layer metrics.
//
//	go run . -workload fleet-dispatch -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The lines before it repeat each metric as text and record the host
// facts and the bases of every ratio.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"fasttts/internal/cluster"
	"fasttts/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the benchmark's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scale shrinks the workload for tests; the benchmark runs at 1.
	scale float64
	// setupReps is how many times set-up is repeated; setup_s is the median.
	setupReps int
	// minRuns is the least number of timed runs, however long they take.
	minRuns int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{scale: 1, setupReps: 21, minRuns: 3}
	fs.StringVar(&o.workload, "workload", "", "workload name: fleet-dispatch, edge-tts, kv-reuse or elastic-hedge")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "host seconds to spend on timed runs")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: one extra traced pass and per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if !(o.seconds > 0) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	o.trace = *trace == 1
	return runWith(o, stdout, stderr)
}

// runWith runs the benchmark and prints its report, returning the exit
// status.
func runWith(o options, stdout, stderr io.Writer) int {
	res, err := bench(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// timedRun is one untraced, timed Fleet.Run.
type timedRun struct {
	wall          time.Duration
	allocs, bytes uint64
}

// session is the state of one benchmark invocation.
type session struct {
	o    options
	inst *instance
	ref  string // digest of the warm-up run; every later run must match
	// attempted and failed count the requests of checked runs.
	attempted, failed int
	// checkErr is the first output-check violation, if any.
	checkErr error
}

// bench builds the workload, runs it and returns the result. Set-up
// failures are errors; failed runs are counted in the result.
func bench(o options, stdout io.Writer) (*result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	s := &session{o: o}
	setup, err := s.setUp(w)
	if err != nil {
		return nil, err
	}
	n := len(s.inst.reqs)

	// Warm-up: one untimed run lets lazy set-up finish and fixes the
	// reference digest.
	warm, err := s.runOnce(hooks{})
	if err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	if err := checkOutcome(s.inst.reqs, warm); err != nil {
		return nil, fmt.Errorf("warm-up run fails the output check: %w", err)
	}
	s.ref = digest(warm)

	runs, last := s.timedRuns()
	if last == nil {
		return nil, fmt.Errorf("the last timed run failed: %v", s.checkErr)
	}
	facts := hostFacts(o, n, len(runs), s.ref)
	res := &result{}
	if !o.trace {
		res.Metrics = endToEnd(s.inst, runs, last, setup, facts)
	} else {
		if res.Metrics, err = s.tracedPass(facts); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
	}
	runtime.KeepAlive(last)
	res.Attempted, res.Failed = s.attempted, s.failed
	res.Correct = s.failed == 0
	if s.checkErr != nil {
		facts["check_error"] = s.checkErr.Error()
	}
	printReport(stdout, facts, res.Metrics)
	return res, nil
}

// setUp builds the workload and a fleet for it setupReps times and
// returns the median wall time; the last build is kept.
func (s *session) setUp(w workloadDef) (float64, error) {
	times := make([]float64, 0, s.o.setupReps)
	for i := 0; i < s.o.setupReps; i++ {
		s.inst = nil
		runtime.GC()
		t0 := time.Now()
		inst, err := w.build(s.o.seed, s.o.scale)
		if err != nil {
			return 0, fmt.Errorf("building %s: %w", w.name, err)
		}
		cfg, err := inst.config(hooks{})
		if err != nil {
			return 0, err
		}
		if _, err := cluster.New(cfg); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		s.inst = inst
	}
	return median(times), nil
}

// runOnce builds a fresh fleet with the given hooks and serves the
// workload's stream.
func (s *session) runOnce(h hooks) (*cluster.Outcome, error) {
	cfg, err := s.inst.config(h)
	if err != nil {
		return nil, err
	}
	fleet, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	return fleet.Run(s.inst.reqs)
}

// timedRuns runs the workload until the time budget is spent (and at
// least minRuns times). Only Fleet.Run is timed; each run starts from a
// collected heap. A run that errors, fails the output check or differs
// from the reference digest counts all its requests as failed. It
// returns the passing runs and the last run's outcome, nil if that run
// failed.
func (s *session) timedRuns() ([]timedRun, *cluster.Outcome) {
	var runs []timedRun
	var last *cluster.Outcome
	deadline := time.Now().Add(time.Duration(s.o.seconds * float64(time.Second)))
	for tries := 0; tries < s.o.minRuns || time.Now().Before(deadline); tries++ {
		s.attempted += len(s.inst.reqs)
		cfg, err := s.inst.config(hooks{})
		var fleet *cluster.Fleet
		if err == nil {
			fleet, err = cluster.New(cfg)
		}
		if err != nil {
			s.fail(len(s.inst.reqs), err)
			continue
		}
		last = nil
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		out, err := fleet.Run(s.inst.reqs)
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err == nil {
			err = checkOutcome(s.inst.reqs, out)
		}
		if err == nil {
			if d := digest(out); d != s.ref {
				err = fmt.Errorf("outcome digest %s differs from the warm-up run's %s", d, s.ref)
			}
		}
		if err != nil {
			s.fail(len(s.inst.reqs), err)
			continue
		}
		runs = append(runs, timedRun{wall: wall, allocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc})
		last = out
	}
	return runs, last
}

// fail counts n requests of one run as failed and keeps the first cause.
func (s *session) fail(n int, err error) {
	s.failed += n
	if s.checkErr == nil {
		s.checkErr = err
	}
}

// endToEnd computes the end-to-end metrics from the passing timed runs
// and the last outcome, recording the bases of its ratios in facts.
func endToEnd(inst *instance, runs []timedRun, last *cluster.Outcome, setup float64, facts map[string]any) map[string]metric {
	n := float64(len(inst.reqs))
	var rate, allocs, bytes []float64
	for _, r := range runs {
		rate = append(rate, n/r.wall.Seconds())
		allocs = append(allocs, float64(r.allocs)/n)
		bytes = append(bytes, float64(r.bytes)/n)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	st := last.Stats(inst.slo)
	lat := servedLatencies(last)
	p := highestPercentile(len(lat), 99)
	p50, p99 := percentile(lat, 50), percentile(lat, p)
	correct := 0
	for _, r := range last.Results {
		if r.Result != nil && !r.Rejected && metrics.Top1Correct(r.PathResults()) {
			correct++
		}
	}
	facts["latency_samples"] = len(lat)
	facts["sim_p99_s_percentile"] = p
	facts["sim_ratio_base_requests"] = len(inst.reqs)
	facts["shed"] = st.Rejected
	facts["slo_s"] = inst.slo
	first, lastQ := queueGrowth(last)
	facts["queue_delay_first_quarter_s"] = first
	facts["queue_delay_last_quarter_s"] = lastQ
	facts["queue_stationary"] = stationary(first, lastQ, inst.slo)
	return map[string]metric{
		"req_per_s":           {median(rate), "req/s"},
		"allocs_per_req":      {median(allocs), "count"},
		"alloc_bytes_per_req": {median(bytes), "B"},
		"heap_retained_mb":    {float64(ms.HeapAlloc) / (1 << 20), "MiB"},
		"setup_s":             {setup, "s"},
		"sim_p50_s":           {p50, "sim_s"},
		"sim_p99_s":           {p99, "sim_s"},
		"sim_goodput_tok_s":   {st.Goodput, "tok/sim_s"},
		"sim_slo_attain":      {st.SLOAttainment, "ratio"},
		"sim_accuracy":        {float64(correct) / n, "ratio"},
	}
}

// servedLatencies returns the served requests' wall latencies, sorted.
func servedLatencies(out *cluster.Outcome) []float64 {
	var lat []float64
	for _, r := range out.Results {
		if !r.Rejected {
			lat = append(lat, r.WallLatency)
		}
	}
	sort.Float64s(lat)
	return lat
}

// highestPercentile returns want if at least ten of n samples lie
// beyond it, else the highest percentile that leaves ten beyond.
func highestPercentile(n int, want float64) float64 {
	if n <= 10 {
		return 50
	}
	return math.Max(50, math.Min(want, 100*(1-10/float64(n))))
}

// percentile is the nearest-rank p-th percentile of sorted, 0 if empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

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

// hostFacts records what a result must be read against.
func hostFacts(o options, requests, runs int, ref string) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"scale":      o.scale,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"requests":   requests,
		"timed_runs": runs,
		"digest":     ref,
	}
}

// printReport writes the facts as one JSON line and every metric as a
// "name value unit" text line.
func printReport(w io.Writer, facts map[string]any, ms map[string]metric) {
	if line, err := json.Marshal(facts); err == nil {
		fmt.Fprintf(w, "facts %s\n", line)
	}
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-32s %16.6g %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

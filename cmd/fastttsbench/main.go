// Command fastttsbench regenerates the paper's evaluation figures from
// the simulated serving stack and prints (or writes) each as TSV. With
// -suite it instead runs one of the benchmark sweeps behind the
// committed BENCH_*.json artifacts: it writes the sweep's report to
// <out>/<artifact> (or stdout) and exits nonzero when the sweep's gate
// fails.
//
// Usage:
//
//	fastttsbench -fig all                 # every figure, to stdout
//	fastttsbench -fig 12 -problems 12     # one figure, bigger sample
//	fastttsbench -fig 13 -out results/    # write results/fig13.tsv
//	fastttsbench -list                    # list figure IDs and scenarios
//	fastttsbench -suite scenarios -golden testdata/golden -out .
//	                                      # regression sweep -> ./BENCH_scenarios.json,
//	                                      # nonzero exit on any golden mismatch
//	fastttsbench -suite cache -out .      # KV memory-plane sweep -> ./BENCH_cache.json
//	fastttsbench -suite strategy -out .   # strategy sweep -> ./BENCH_strategy.json
//	fastttsbench -suite metrics -out .    # streaming-sketch error sweep -> ./BENCH_metrics.json,
//	                                      # nonzero exit past the documented error bound
//	fastttsbench -suite trace -out .      # flight-recorder sweep -> ./BENCH_trace.json + ./trace.json,
//	                                      # nonzero exit past the overhead or attribution-sum gate
//	fastttsbench -suite perf -perf-baseline BENCH_core.json -out .
//	                                      # fleet-core sweep -> ./BENCH_core.json (router sweep,
//	                                      # controller overhead and shard scaling in one pass)
//
// Progress lines go to stderr, so a suite run without -out prints only
// its JSON report on stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fasttts"
	"fasttts/internal/bench"
)

// suiteOpts carries the flags a suite may read.
type suiteOpts struct {
	out      string
	requests int
	seed     uint64
	golden   string

	perfDevices, perfRequests, perfRouters, perfShards string
	perfLabel, perfBaseline                            string

	// log receives progress lines.
	log io.Writer
}

// suite is one benchmark sweep. run returns the sweep's report and a
// non-nil error when the report's gate fails; a nil report means the
// sweep could not run at all and the error says why.
type suite struct {
	name     string
	artifact string
	run      func(o suiteOpts) (any, error)
}

var suites = []suite{
	{"scenarios", "BENCH_scenarios.json", runScenarioRegress},
	{"cache", "BENCH_cache.json", runCacheSweep},
	{"strategy", "BENCH_strategy.json", runStrategySweep},
	{"metrics", "BENCH_metrics.json", runMetricsSweep},
	{"trace", "BENCH_trace.json", runTraceSweep},
	{"perf", "BENCH_core.json", runPerfSweep},
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fastttsbench:", err)
		os.Exit(1)
	}
}

// run is the command with its arguments and output streams explicit.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fastttsbench", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		fig      = fs.String("fig", "all", "figure ID (e.g. 12, 17r) or 'all'")
		problems = fs.Int("problems", 0, "problems per dataset (0 = figure default)")
		maxN     = fs.Int("maxn", 512, "cap for beam-count sweeps")
		format   = fs.String("format", "tsv", "figure output format: tsv or jsonl")
		list     = fs.Bool("list", false, "list available figures and scenarios, then exit")
		name     = fs.String("suite", "", "run a benchmark sweep instead of figures: "+suiteNames())
		o        suiteOpts
	)
	fs.Uint64Var(&o.seed, "seed", 42, "root random seed")
	fs.StringVar(&o.out, "out", "", "directory to write fig<ID>.<format> files or the suite's BENCH_*.json (default stdout)")
	fs.StringVar(&o.golden, "golden", "", "scenarios suite: golden-trace directory to check runs against (e.g. testdata/golden)")
	fs.IntVar(&o.requests, "requests", 0, "scenario stream length (0 = scenario default)")
	fs.StringVar(&o.perfDevices, "perf-devices", "1,8,64,256,1024", "perf suite: comma-separated fleet sizes")
	fs.StringVar(&o.perfRequests, "perf-requests", "1000,10000,100000", "perf suite: comma-separated stream lengths")
	fs.StringVar(&o.perfRouters, "perf-routers", "rr,least-work,jsq,p2c,prefix", "perf suite: comma-separated routers")
	fs.StringVar(&o.perfShards, "perf-shards", "1,2,4,8", "perf suite: comma-separated shard counts (1 = the one inline shard, always measured as the speedup base)")
	fs.StringVar(&o.perfLabel, "perf-label", "event-heap", "perf suite: label for the measurement set")
	fs.StringVar(&o.perfBaseline, "perf-baseline", "", "perf suite: previous BENCH_core.json whose 'current' runs become this report's baseline")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits with usage
	o.log = stderr

	if *list {
		for _, f := range bench.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", f.ID, f.Title)
		}
		for _, f := range bench.Extensions() {
			fmt.Fprintf(stdout, "%-4s %s (extension)\n", f.ID, f.Title)
		}
		for _, s := range fasttts.Scenarios() {
			fmt.Fprintf(stdout, "%-12s %s (scenario)\n", s.Name, s.Description)
		}
		return nil
	}
	if *name != "" {
		return runSuite(*name, o, stdout)
	}

	opts := bench.RunOpts{Problems: *problems, Seed: o.seed, MaxN: *maxN}
	var figures []bench.Figure
	switch *fig {
	case "all":
		figures = bench.All()
	case "extensions":
		figures = bench.Extensions()
	default:
		for _, id := range strings.Split(*fig, ",") {
			f, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			figures = append(figures, f)
		}
	}

	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return err
		}
	}
	render := func(rep *bench.Report) string {
		if *format == "jsonl" {
			return rep.JSONL()
		}
		return rep.TSV()
	}
	if *format != "tsv" && *format != "jsonl" {
		return fmt.Errorf("unknown format %q", *format)
	}
	for _, f := range figures {
		start := time.Now()
		rep, err := f.Run(opts)
		if err != nil {
			return fmt.Errorf("figure %s: %w", f.ID, err)
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		if o.out != "" {
			path := filepath.Join(o.out, "fig"+f.ID+"."+*format)
			if err := os.WriteFile(path, []byte(render(rep)), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s (%s)\n", path, elapsed)
		} else {
			fmt.Fprint(stdout, render(rep))
			fmt.Fprintf(stdout, "# (generated in %s)\n\n", elapsed)
		}
	}
	return nil
}

// runSuite runs the named suite, writes its report to o.out (or
// stdout), and returns the suite's gate error after the report is
// written, so a failing gate still leaves its evidence behind.
func runSuite(name string, o suiteOpts, stdout io.Writer) error {
	for _, s := range suites {
		if s.name != name {
			continue
		}
		if o.out != "" {
			if err := os.MkdirAll(o.out, 0o755); err != nil {
				return err
			}
		}
		report, gate := s.run(o)
		if report == nil {
			return gate
		}
		data, err := encodeReport(report)
		if err != nil {
			return err
		}
		if o.out == "" {
			if _, err := stdout.Write(data); err != nil {
				return err
			}
			return gate
		}
		path := filepath.Join(o.out, s.artifact)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
		return gate
	}
	return fmt.Errorf("unknown suite %q (want %s)", name, suiteNames())
}

// encodeReport is the one encoding of every BENCH_*.json report:
// two-space indented, newline-terminated.
func encodeReport(report any) ([]byte, error) {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func suiteNames() string {
	names := make([]string, len(suites))
	for i, s := range suites {
		names[i] = s.name
	}
	return strings.Join(names, "|")
}

// bestOf times n variants interleaved: each of reps rounds runs
// variants 0..n-1 in order, so clock-frequency and cache drift hit all
// of them alike, and keeps each variant's fastest wall time in
// milliseconds. measure(v, rep) runs variant v once and returns the
// wall time it measured.
func bestOf(n, reps int, measure func(v, rep int) (time.Duration, error)) ([]float64, error) {
	best := make([]float64, n)
	for rep := 0; rep < reps; rep++ {
		for v := range best {
			d, err := measure(v, rep)
			if err != nil {
				return nil, err
			}
			if ms := float64(d.Nanoseconds()) / 1e6; rep == 0 || ms < best[v] {
				best[v] = ms
			}
		}
	}
	return best, nil
}

// Command fastttsbench regenerates the paper's evaluation figures from
// the simulated serving stack and prints (or writes) each as TSV. It is
// also the scenario-regression runner: -scenarios sweeps the named
// workload-scenario matrix (catalog × server/cluster), checks every
// trace against the committed goldens, and emits BENCH_scenarios.json
// for the CI conformance gate.
//
// Usage:
//
//	fastttsbench -fig all                 # every figure, to stdout
//	fastttsbench -fig 12 -problems 12     # one figure, bigger sample
//	fastttsbench -fig 13 -out results/    # write results/fig13.tsv
//	fastttsbench -list                    # list figure IDs and scenarios
//	fastttsbench -scenarios -golden testdata/golden -out .
//	                                      # regression sweep -> ./BENCH_scenarios.json,
//	                                      # nonzero exit on any golden mismatch
//	fastttsbench -metrics -out .          # streaming-sketch error sweep -> ./BENCH_metrics.json,
//	                                      # nonzero exit past the documented error bound
//	fastttsbench -trace -out .            # flight-recorder sweep -> ./BENCH_trace.json + ./trace.json,
//	                                      # nonzero exit past the overhead or attribution-sum gate
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fasttts"
	"fasttts/internal/bench"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure ID (e.g. 12, 17r) or 'all'")
		problems = flag.Int("problems", 0, "problems per dataset (0 = figure default)")
		seed     = flag.Uint64("seed", 42, "root random seed")
		maxN     = flag.Int("maxn", 512, "cap for beam-count sweeps")
		out      = flag.String("out", "", "directory to write fig<ID>.<format> files (default stdout)")
		format   = flag.String("format", "tsv", "output format: tsv or jsonl")
		list     = flag.Bool("list", false, "list available figures and scenarios, then exit")

		scenarios = flag.Bool("scenarios", false, "run the scenario-regression sweep instead of figures")
		golden    = flag.String("golden", "", "golden-trace directory to check scenario runs against (e.g. testdata/golden)")
		requests  = flag.Int("requests", 0, "scenario stream length (0 = scenario default)")
		cache     = flag.Bool("cache", false, "run the KV memory-plane cache sweep (router x capacity matrix) instead of figures")
		strategyF = flag.Bool("strategy", false, "run the test-time-compute strategy sweep (scenario x strategy matrix) instead of figures")
		metricsF  = flag.Bool("metrics", false, "run the streaming-metrics sketch-vs-exact sweep (synthetic streams + scenario catalog) instead of figures")
		traceF    = flag.Bool("trace", false, "run the flight-recorder trace sweep (attribution exactness on the catalog + recorder overhead) instead of figures")

		perf         = flag.Bool("perf", false, "run the fleet-core perf sweep instead of figures")
		perfDevs     = flag.String("perf-devices", "1,8,64,256,1024", "comma-separated fleet sizes for -perf")
		perfReqs     = flag.String("perf-requests", "1000,10000,100000", "comma-separated stream lengths for -perf")
		perfRouters  = flag.String("perf-routers", "rr,least-work,jsq,p2c,prefix", "comma-separated routers for -perf")
		perfLabel    = flag.String("perf-label", "event-heap", "label for the -perf measurement set")
		perfBaseline = flag.String("perf-baseline", "", "previous BENCH_core.json whose 'current' runs become this report's baseline")
		perfCtl      = flag.Bool("perf-controller", false, "with -perf: measure controller-overhead cells (fleet step cost with the control plane on vs off) instead of the router sweep")
		perfMerge    = flag.String("perf-merge", "", "with -perf-controller or -perf-parallel: existing BENCH_core.json whose other sections are preserved while the measured section is replaced")
		perfPar      = flag.Bool("perf-parallel", false, "with -perf: measure wall-clock scaling across -perf-shards instead of the router sweep")
		perfShards   = flag.String("perf-shards", "1,2,4,8", "comma-separated shard counts for -perf-parallel (1 = one inline shard, always measured as the speedup base)")
	)
	flag.Parse()

	if *list {
		for _, f := range bench.All() {
			fmt.Printf("%-4s %s\n", f.ID, f.Title)
		}
		for _, f := range bench.Extensions() {
			fmt.Printf("%-4s %s (extension)\n", f.ID, f.Title)
		}
		for _, s := range fasttts.Scenarios() {
			fmt.Printf("%-12s %s (scenario)\n", s.Name, s.Description)
		}
		return
	}

	if *perf {
		devList, err := parseIntList(*perfDevs)
		if err != nil {
			fatal(fmt.Errorf("-perf-devices: %w", err))
		}
		reqList, err := parseIntList(*perfReqs)
		if err != nil {
			fatal(fmt.Errorf("-perf-requests: %w", err))
		}
		routers, err := parseRouterList(*perfRouters)
		if err != nil {
			fatal(fmt.Errorf("-perf-routers: %w", err))
		}
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fatal(err)
			}
		}
		if *perfCtl {
			if err := runControllerSweep(devList, reqList, routers, *seed, *perfMerge, *out); err != nil {
				fatal(err)
			}
			return
		}
		if *perfPar {
			shardList, err := parseIntList(*perfShards)
			if err != nil {
				fatal(fmt.Errorf("-perf-shards: %w", err))
			}
			if err := runParallelSweep(devList, reqList, shardList, routers, *seed, *perfMerge, *out); err != nil {
				fatal(err)
			}
			return
		}
		if err := runPerfSweep(devList, reqList, routers, *seed, *perfLabel, *perfBaseline, *out); err != nil {
			fatal(err)
		}
		return
	}

	if *scenarios {
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fatal(err)
			}
		}
		if err := runScenarioRegress(*golden, *out, *requests, *seed); err != nil {
			fatal(err)
		}
		return
	}

	if *cache {
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fatal(err)
			}
		}
		if err := runCacheSweep(*out, *requests, *seed); err != nil {
			fatal(err)
		}
		return
	}

	if *strategyF {
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fatal(err)
			}
		}
		if err := runStrategySweep(*out, *requests, *seed); err != nil {
			fatal(err)
		}
		return
	}

	if *traceF {
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fatal(err)
			}
		}
		if err := runTraceSweep(*out, *requests, *seed); err != nil {
			fatal(err)
		}
		return
	}

	if *metricsF {
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fatal(err)
			}
		}
		if err := runMetricsSweep(*out, *requests, *seed); err != nil {
			fatal(err)
		}
		return
	}

	opts := bench.RunOpts{Problems: *problems, Seed: *seed, MaxN: *maxN}
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
				fatal(err)
			}
			figures = append(figures, f)
		}
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
	}
	render := func(rep *bench.Report) string {
		if *format == "jsonl" {
			return rep.JSONL()
		}
		return rep.TSV()
	}
	if *format != "tsv" && *format != "jsonl" {
		fatal(fmt.Errorf("unknown format %q", *format))
	}
	for _, f := range figures {
		start := time.Now()
		rep, err := f.Run(opts)
		if err != nil {
			fatal(fmt.Errorf("figure %s: %w", f.ID, err))
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		if *out != "" {
			path := filepath.Join(*out, "fig"+f.ID+"."+*format)
			if err := os.WriteFile(path, []byte(render(rep)), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s (%s)\n", path, elapsed)
		} else {
			fmt.Print(render(rep))
			fmt.Printf("# (generated in %s)\n\n", elapsed)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fastttsbench:", err)
	os.Exit(1)
}

package main

// Fleet-core performance mode: -perf sweeps fleet size × stream length ×
// router over a lightweight synthetic workload and emits BENCH_core.json,
// the committed perf-trajectory artifact. The workload is deliberately
// cheap per request (tiny prompts, short chains) so the measurement is
// dominated by the fleet event core — routing, event dispatch, load
// indexes — rather than by the simulated token arithmetic; wall-time here
// tracks scheduling overhead, which is exactly what the event-heap
// rewrite targets.
//
// A previous report's "current" runs can be carried forward as the
// "baseline" section with -perf-baseline, so the committed artifact
// records both the pre-refactor and post-refactor measurements of the
// same sweep and the speedup between them.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fasttts/internal/cluster"
	"fasttts/internal/control"
	"fasttts/internal/core"
	"fasttts/internal/hw"
	"fasttts/internal/model"
	"fasttts/internal/rng"
	"fasttts/internal/sched"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

// coreArtifact is the BENCH_core.json filename.
const coreArtifact = "BENCH_core.json"

// perfSpec is the synthetic dataset of the perf sweep: very short
// prompts and chains (mean step ≈ 11 tokens, ≤ 2 steps) keep per-request
// simulation cost low so fleet-core overhead dominates the wall time.
var perfSpec = workload.DatasetSpec{
	Name: "PERF", Problems: 64,
	DiffLo: 0.30, DiffHi: 0.70,
	StepLogMu: 2.3, StepLogSigma: 0.4, MinStepTokens: 4,
	MaxSteps: 2, TypicalSteps: 1.3,
	PromptLo: 8, PromptHi: 16,
	AnswerSpace: 10, QualityDriftScale: 1.0,
}

// perfRun is one measured sweep cell.
type perfRun struct {
	Devices  int     `json:"devices"`
	Requests int     `json:"requests"`
	Router   string  `json:"router"`
	WallMS   float64 `json:"wall_ms"`
	Served   int     `json:"served"`
	Rejected int     `json:"rejected"`
	Requeues int     `json:"requeues"`
	// EventsPerSec is served+rejected results per wall second: the
	// fleet core's scheduling throughput.
	EventsPerSec float64 `json:"events_per_sec"`
}

// perfSection is one labeled measurement set (baseline or current).
type perfSection struct {
	Label string    `json:"label"`
	Runs  []perfRun `json:"runs"`
}

// perfSpeedup summarizes current-vs-baseline on the matching cells.
type perfSpeedup struct {
	Devices  int                `json:"devices"`
	Requests int                `json:"requests"`
	ByRouter map[string]float64 `json:"by_router"`
	Min      float64            `json:"min"`
	Max      float64            `json:"max"`
}

// ctrlRun is one controller-overhead cell: the same fleet and stream
// measured with the elastic control plane off and on, so the delta is
// the cost of ticking, signal gathering, and actuation bookkeeping.
type ctrlRun struct {
	Devices  int     `json:"devices"`
	Requests int     `json:"requests"`
	Router   string  `json:"router"`
	OffMS    float64 `json:"off_wall_ms"`
	OnMS     float64 `json:"on_wall_ms"`
	// OverheadPct is (on - off) / off x 100; small negatives are timing
	// noise.
	OverheadPct float64 `json:"overhead_pct"`
	// Ticks / ScaleUps / ScaleDowns report what the controller actually
	// did during the measured run.
	Ticks      int `json:"ticks"`
	ScaleUps   int `json:"scale_ups"`
	ScaleDowns int `json:"scale_downs"`
}

// parRun is one parallel-scaling cell: the identical fleet and stream
// timed at one shard count. Shards == 1 steps every device inline on one
// goroutine and is the denominator of SpeedupVsSeq.
type parRun struct {
	Devices  int     `json:"devices"`
	Requests int     `json:"requests"`
	Router   string  `json:"router"`
	Shards   int     `json:"shards"`
	WallMS   float64 `json:"wall_ms"`
	// SpeedupVsSeq is the 1-shard cell's wall time over this one; every
	// shard count is bit-identical, so this is pure wall-clock scaling.
	SpeedupVsSeq float64 `json:"speedup_vs_seq"`
	Served       int     `json:"served"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// parSection is the parallel-scaling measurement set. Cores and
// GOMAXPROCS record the measurement environment: shard workers cannot
// run concurrently beyond min(cores, GOMAXPROCS), so speedups measured
// on a small host understate what the same sweep shows on a wide one —
// regenerate on the target machine rather than extrapolating.
type parSection struct {
	Cores      int      `json:"cores"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Runs       []parRun `json:"runs"`
}

// perfReport is the BENCH_core.json document.
type perfReport struct {
	Schema    string       `json:"schema"`
	Seed      uint64       `json:"seed"`
	GoVersion string       `json:"go_version"`
	Baseline  *perfSection `json:"baseline,omitempty"`
	Current   perfSection  `json:"current"`
	// Speedups lists baseline/current wall-time ratios per matched
	// (devices, requests) cell; > 1 means the current code is faster.
	Speedups []perfSpeedup `json:"speedups,omitempty"`
	// ControllerOverhead holds the controller-on-vs-off cells (see
	// ctrlRun), produced by -perf-controller and merged alongside the
	// main sweep.
	ControllerOverhead []ctrlRun `json:"controller_overhead,omitempty"`
	// ParallelScaling holds the shard-scaling wall-clock cells (see
	// parRun), produced by -perf-parallel and merged alongside the main
	// sweep.
	ParallelScaling *parSection `json:"parallel_scaling,omitempty"`
}

// perfDeviceRate is the per-device arrival rate (req/s of virtual time).
// The stream rate scales with fleet size so per-device load is constant
// across the sweep, and it is set well above the per-device service rate:
// devices run with standing in-flight backlogs (capped by perfMaxInFlight,
// beyond which admission sheds), which is the regime the event core must
// survive — every fleet event then confronts a busy device population.
const perfDeviceRate = 30.0

// perfMaxInFlight caps each device's admitted unfinished requests, keeping
// per-slice policy scans bounded so every sweep cell completes; arrivals
// beyond it are shed, exercising the rejection path at scale.
const perfMaxInFlight = 32

// perfDevices builds the n-device fleet: homogeneous RTX 4090s, FCFS
// behind an admission limit, 1.5B pair, chain-of-thought search (a single
// device slice per request keeps the simulated token arithmetic minimal).
func perfDevices(n int, seed uint64) ([]cluster.Device, error) {
	pol, err := search.New(search.SingleCoT, 1, 1)
	if err != nil {
		return nil, err
	}
	devs := make([]cluster.Device, n)
	for i := range devs {
		devs[i] = cluster.Device{
			Config: core.Config{
				GPU:       hw.RTX4090,
				Generator: model.Qwen25Math1_5B,
				Verifier:  model.Qwen25Math1_5B,
				Policy:    pol,
				Opts:      core.BaselineOptions(),
				Seed:      seed + uint64(i),
			},
			Policy: sched.AdmissionLimit{Inner: sched.FCFS{}, MaxInFlight: perfMaxInFlight},
		}
	}
	return devs, nil
}

// perfStream builds the request stream: Poisson arrivals at a rate
// proportional to fleet size, problems cycled over the synthetic set
// (repeats give the prefix router real locality to exploit).
func perfStream(requests, devices int, seed uint64) []core.Request {
	root := rng.New(seed)
	ds := workload.NewDataset(perfSpec, root)
	arrivals := workload.PoissonArrivals(requests, perfDeviceRate*float64(devices), root.Child("perf/arrivals"))
	reqs := make([]core.Request, requests)
	for i := range reqs {
		reqs[i] = core.Request{
			Problem: ds.Problems[i%len(ds.Problems)],
			Arrival: arrivals[i],
			Tag:     i,
		}
	}
	return reqs
}

// perfCell measures one sweep cell: build a fresh fleet, serve the
// stream, time Fleet.Run. Small cells are repeated and the minimum wall
// time kept, damping scheduler noise.
func perfCell(devices, requests int, router string, seed uint64) (perfRun, error) {
	reps := 1
	if requests < 10000 {
		reps = 3
	}
	run := perfRun{Devices: devices, Requests: requests, Router: router}
	reqs := perfStream(requests, devices, seed)
	for rep := 0; rep < reps; rep++ {
		specs, err := perfDevices(devices, seed)
		if err != nil {
			return run, err
		}
		r, err := cluster.RouterByName(router)
		if err != nil {
			return run, err
		}
		fleet, err := cluster.New(cluster.Config{Devices: specs, Router: r, Seed: seed})
		if err != nil {
			return run, err
		}
		start := time.Now()
		out, err := fleet.Run(reqs)
		wall := time.Since(start)
		if err != nil {
			return run, err
		}
		ms := float64(wall.Nanoseconds()) / 1e6
		if rep == 0 || ms < run.WallMS {
			run.WallMS = ms
		}
		if rep == 0 {
			for _, res := range out.Results {
				if res.Rejected {
					run.Rejected++
				} else {
					run.Served++
				}
			}
			run.Requeues = out.Requeues
		}
	}
	if run.WallMS > 0 {
		run.EventsPerSec = float64(run.Served+run.Rejected) / (run.WallMS / 1e3)
	}
	return run, nil
}

// runPerfSweep executes the matrix and writes BENCH_core.json.
func runPerfSweep(deviceList, requestList []int, routers []string, seed uint64, label, baselinePath, outDir string) error {
	report := perfReport{
		Schema:    "fasttts-bench-core/v1",
		Seed:      seed,
		GoVersion: runtime.Version(),
		Current:   perfSection{Label: label},
	}
	if baselinePath != "" {
		base, err := loadPerfBaseline(baselinePath)
		if err != nil {
			return err
		}
		report.Baseline = base
	}
	for _, nd := range deviceList {
		for _, nr := range requestList {
			for _, router := range routers {
				start := time.Now()
				run, err := perfCell(nd, nr, router, seed)
				if err != nil {
					return fmt.Errorf("perf %dx%d/%s: %w", nd, nr, router, err)
				}
				report.Current.Runs = append(report.Current.Runs, run)
				fmt.Fprintf(os.Stderr, "perf %4d dev x %6d req %-10s %10.1f ms (%s)\n",
					nd, nr, router, run.WallMS, time.Since(start).Round(time.Millisecond))
			}
		}
	}
	if report.Baseline != nil {
		report.Speedups = perfSpeedups(report.Baseline.Runs, report.Current.Runs)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outDir != "" {
		path := filepath.Join(outDir, coreArtifact)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
		return nil
	}
	os.Stdout.Write(data)
	return nil
}

// perfControl builds the control-plane configuration of a controller-on
// perf cell: a threshold controller ticking 64 times over the stream's
// expected span, with an 8-slot warm pool it may actually scale into —
// the overhead number must include real actuation, not just idle ticks.
func perfControl(devices, requests int, seed uint64) (*cluster.ControlConfig, error) {
	span := float64(requests) / (perfDeviceRate * float64(devices))
	interval := span / 64
	warm, err := perfDevices(8, seed+1000)
	if err != nil {
		return nil, err
	}
	return &cluster.ControlConfig{
		Controller:  control.NewThreshold(),
		Interval:    interval,
		Warm:        warm,
		WarmupDelay: interval / 2,
		SLOLatency:  10,
	}, nil
}

// ctrlCell measures one controller-overhead cell: the identical fleet
// and stream timed with the control plane detached and attached.
func ctrlCell(devices, requests int, router string, seed uint64) (ctrlRun, error) {
	run := ctrlRun{Devices: devices, Requests: requests, Router: router}
	reqs := perfStream(requests, devices, seed)
	reps := 1
	if requests < 10000 {
		reps = 3
	}
	measure := func(withCtl bool) (float64, *cluster.Outcome, error) {
		best := 0.0
		var kept *cluster.Outcome
		for rep := 0; rep < reps; rep++ {
			specs, err := perfDevices(devices, seed)
			if err != nil {
				return 0, nil, err
			}
			r, err := cluster.RouterByName(router)
			if err != nil {
				return 0, nil, err
			}
			cfg := cluster.Config{Devices: specs, Router: r, Seed: seed}
			if withCtl {
				if cfg.Control, err = perfControl(devices, requests, seed); err != nil {
					return 0, nil, err
				}
			}
			fleet, err := cluster.New(cfg)
			if err != nil {
				return 0, nil, err
			}
			start := time.Now()
			out, err := fleet.Run(reqs)
			wall := float64(time.Since(start).Nanoseconds()) / 1e6
			if err != nil {
				return 0, nil, err
			}
			if rep == 0 || wall < best {
				best = wall
			}
			if rep == 0 {
				kept = out
			}
		}
		return best, kept, nil
	}
	off, _, err := measure(false)
	if err != nil {
		return run, err
	}
	on, out, err := measure(true)
	if err != nil {
		return run, err
	}
	run.OffMS, run.OnMS = off, on
	if off > 0 {
		run.OverheadPct = round2((on - off) / off * 100)
	}
	if out.Control != nil {
		run.Ticks = out.Control.Ticks
		run.ScaleUps = out.Control.ScaleUps
		run.ScaleDowns = out.Control.ScaleDowns
	}
	return run, nil
}

// runControllerSweep measures the controller-overhead cells and writes
// (or merges into) BENCH_core.json: when mergePath names an existing
// report, its baseline/current/speedup sections are preserved and only
// the controller_overhead section is replaced.
func runControllerSweep(deviceList, requestList []int, routers []string, seed uint64, mergePath, outDir string) error {
	report := perfReport{
		Schema:    "fasttts-bench-core/v1",
		Seed:      seed,
		GoVersion: runtime.Version(),
		Current:   perfSection{Label: "event-heap"},
	}
	if mergePath != "" {
		data, err := os.ReadFile(mergePath)
		if err != nil {
			return fmt.Errorf("perf merge: %w", err)
		}
		if err := json.Unmarshal(data, &report); err != nil {
			return fmt.Errorf("perf merge %s: %w", mergePath, err)
		}
	}
	report.ControllerOverhead = nil
	for _, nd := range deviceList {
		for _, nr := range requestList {
			for _, router := range routers {
				start := time.Now()
				run, err := ctrlCell(nd, nr, router, seed)
				if err != nil {
					return fmt.Errorf("perf-controller %dx%d/%s: %w", nd, nr, router, err)
				}
				report.ControllerOverhead = append(report.ControllerOverhead, run)
				fmt.Fprintf(os.Stderr, "ctrl %4d dev x %6d req %-10s off %9.1f ms  on %9.1f ms  %+6.1f%% (%s)\n",
					nd, nr, router, run.OffMS, run.OnMS, run.OverheadPct, time.Since(start).Round(time.Millisecond))
			}
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outDir != "" {
		path := filepath.Join(outDir, coreArtifact)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
		return nil
	}
	os.Stdout.Write(data)
	return nil
}

// parCell measures one parallel-scaling cell: identical fleet, stream,
// and seed to the router sweep, run on the engine the shard count
// selects.
func parCell(devices, requests, shards int, router string, seed uint64) (parRun, error) {
	reps := 1
	if requests < 10000 {
		reps = 3
	}
	run := parRun{Devices: devices, Requests: requests, Router: router, Shards: shards}
	reqs := perfStream(requests, devices, seed)
	for rep := 0; rep < reps; rep++ {
		specs, err := perfDevices(devices, seed)
		if err != nil {
			return run, err
		}
		r, err := cluster.RouterByName(router)
		if err != nil {
			return run, err
		}
		fleet, err := cluster.New(cluster.Config{Devices: specs, Router: r, Seed: seed, Shards: shards})
		if err != nil {
			return run, err
		}
		start := time.Now()
		out, err := fleet.Run(reqs)
		wall := time.Since(start)
		if err != nil {
			return run, err
		}
		ms := float64(wall.Nanoseconds()) / 1e6
		if rep == 0 || ms < run.WallMS {
			run.WallMS = ms
		}
		if rep == 0 {
			for _, res := range out.Results {
				if !res.Rejected {
					run.Served++
				}
			}
		}
	}
	if run.WallMS > 0 {
		run.EventsPerSec = float64(requests) / (run.WallMS / 1e3)
	}
	return run, nil
}

// runParallelSweep measures the fleet engine's wall-clock scaling
// across shard counts and writes (or merges into) BENCH_core.json: when
// mergePath names an existing report, its other sections are preserved
// and only parallel_scaling is replaced. Shard count 1 (every device
// stepped inline) is always measured first per (devices, requests, router) cell
// as the speedup denominator; the serving results themselves are
// bit-identical at every shard count, so served counts must agree across
// a cell's rows — the sweep fails loudly if they do not.
func runParallelSweep(deviceList, requestList, shardList []int, routers []string, seed uint64, mergePath, outDir string) error {
	report := perfReport{
		Schema:    "fasttts-bench-core/v1",
		Seed:      seed,
		GoVersion: runtime.Version(),
		Current:   perfSection{Label: "event-heap"},
	}
	if mergePath != "" {
		data, err := os.ReadFile(mergePath)
		if err != nil {
			return fmt.Errorf("perf merge: %w", err)
		}
		if err := json.Unmarshal(data, &report); err != nil {
			return fmt.Errorf("perf merge %s: %w", mergePath, err)
		}
	}
	shards := shardList
	if len(shards) == 0 || shards[0] != 1 {
		shards = append([]int{1}, shards...)
	}
	sec := &parSection{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, nd := range deviceList {
		for _, nr := range requestList {
			for _, router := range routers {
				seqMS, seqServed := 0.0, 0
				for _, ns := range shards {
					if ns > nd {
						continue // more shards than devices adds only idle workers
					}
					start := time.Now()
					run, err := parCell(nd, nr, ns, router, seed)
					if err != nil {
						return fmt.Errorf("perf-parallel %dx%d/%s@%d: %w", nd, nr, router, ns, err)
					}
					if ns == 1 {
						seqMS, seqServed = run.WallMS, run.Served
					} else if run.Served != seqServed {
						return fmt.Errorf("perf-parallel %dx%d/%s@%d: served %d != %d at 1 shard (shard counts must be bit-identical)",
							nd, nr, router, ns, run.Served, seqServed)
					}
					if seqMS > 0 && run.WallMS > 0 {
						run.SpeedupVsSeq = round2(seqMS / run.WallMS)
					}
					sec.Runs = append(sec.Runs, run)
					fmt.Fprintf(os.Stderr, "par  %4d dev x %6d req %-10s @%2d shards %10.1f ms  %5.2fx (%s)\n",
						nd, nr, router, ns, run.WallMS, run.SpeedupVsSeq, time.Since(start).Round(time.Millisecond))
				}
			}
		}
	}
	report.ParallelScaling = sec
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outDir != "" {
		path := filepath.Join(outDir, coreArtifact)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
		return nil
	}
	os.Stdout.Write(data)
	return nil
}

// loadPerfBaseline reads a previous report and carries its "current"
// section forward as the new baseline.
func loadPerfBaseline(path string) (*perfSection, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("perf baseline: %w", err)
	}
	var prev perfReport
	if err := json.Unmarshal(data, &prev); err != nil {
		return nil, fmt.Errorf("perf baseline %s: %w", path, err)
	}
	return &perfSection{Label: prev.Current.Label, Runs: prev.Current.Runs}, nil
}

// perfSpeedups computes baseline/current wall-time ratios for every
// (devices, requests) cell present in both sections.
func perfSpeedups(baseline, current []perfRun) []perfSpeedup {
	type cell struct{ d, r int }
	base := make(map[cell]map[string]float64)
	for _, b := range baseline {
		c := cell{b.Devices, b.Requests}
		if base[c] == nil {
			base[c] = make(map[string]float64)
		}
		base[c][b.Router] = b.WallMS
	}
	var out []perfSpeedup
	seen := make(map[cell]bool)
	for _, cur := range current {
		c := cell{cur.Devices, cur.Requests}
		if seen[c] || base[c] == nil {
			continue
		}
		seen[c] = true
		sp := perfSpeedup{Devices: c.d, Requests: c.r, ByRouter: make(map[string]float64)}
		for _, cc := range current {
			if cc.Devices != c.d || cc.Requests != c.r || cc.WallMS <= 0 {
				continue
			}
			bms, ok := base[c][cc.Router]
			if !ok {
				continue
			}
			ratio := bms / cc.WallMS
			sp.ByRouter[cc.Router] = round2(ratio)
			if sp.Min == 0 || ratio < sp.Min {
				sp.Min = ratio
			}
			if ratio > sp.Max {
				sp.Max = ratio
			}
		}
		if len(sp.ByRouter) == 0 {
			continue
		}
		sp.Min, sp.Max = round2(sp.Min), round2(sp.Max)
		out = append(out, sp)
	}
	return out
}

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }

// parseIntList parses a comma-separated integer list flag.
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad list entry %q (want positive integers)", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// parseRouterList validates a comma-separated router list flag.
func parseRouterList(s string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if _, err := cluster.RouterByName(part); err != nil {
			return nil, err
		}
		out = append(out, part)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty router list")
	}
	return out, nil
}

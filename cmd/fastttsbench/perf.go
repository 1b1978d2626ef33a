package main

// Fleet-core performance suite: -suite perf sweeps fleet size × stream
// length × router over a lightweight synthetic workload and emits
// BENCH_core.json, the committed perf-trajectory artifact. The workload
// is deliberately cheap per request (tiny prompts, short chains) so the
// measurement is dominated by the fleet event core — routing, event
// dispatch, load indexes — rather than by the simulated token
// arithmetic; wall-time here tracks scheduling overhead.
//
// Every cell is one (devices, requests, router) fleet timed in several
// variants, interleaved best-of-N: the base run (no controller, one
// inline shard), the same fleet with the elastic control plane
// attached, and the same fleet at each shard count >= 2. The base run
// is the "current" row, the controller-off side of the
// controller-overhead row and the 1-shard row of the shard-scaling
// section, so one pass writes all three sections.
//
// A previous report's "current" runs can be carried forward as the
// "baseline" section with -perf-baseline, so the committed artifact
// records both the earlier and the new measurements of the same sweep
// and the speedup between them.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fasttts/internal/cluster"
	"fasttts/internal/control"
	"fasttts/internal/core"
	"fasttts/internal/hw"
	"fasttts/internal/metrics"
	"fasttts/internal/model"
	"fasttts/internal/rng"
	"fasttts/internal/sched"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

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
	// ctrlRun), one per "current" run.
	ControllerOverhead []ctrlRun `json:"controller_overhead,omitempty"`
	// ParallelScaling holds the shard-scaling wall-clock cells (see
	// parRun), one per "current" run and shard count.
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

// perfTally is what a cell keeps of one variant's outcome.
type perfTally struct {
	served, rejected, requeues int
	control                    *metrics.ControlStats
}

// perfCell measures one (devices, requests, router) cell. Variant 0 is
// the base run, variant 1 attaches the control plane, and variant 2+i
// runs at multi[i] shards, where multi holds the shard counts >= 2 that
// do not exceed the fleet (more shards than devices adds only idle
// workers). Every shard count must serve the identical results, so
// served, rejected and requeues are checked against the base run; the
// controller run is exempt, since it changes the fleet's membership.
func perfCell(devices, requests int, router string, shards []int, seed uint64) (perfRun, ctrlRun, []parRun, error) {
	var multi []int
	for _, ns := range shards {
		if ns >= 2 && ns <= devices {
			multi = append(multi, ns)
		}
	}
	// Small cells repeat to damp scheduler noise.
	reps := 1
	if requests < 10000 {
		reps = 3
	}
	reqs := perfStream(requests, devices, seed)
	tally := make([]perfTally, 2+len(multi))
	best, err := bestOf(len(tally), reps, func(v, rep int) (time.Duration, error) {
		specs, err := perfDevices(devices, seed)
		if err != nil {
			return 0, err
		}
		r, err := cluster.RouterByName(router)
		if err != nil {
			return 0, err
		}
		cfg := cluster.Config{Devices: specs, Router: r, Seed: seed}
		if v == 1 {
			if cfg.Control, err = perfControl(devices, requests, seed); err != nil {
				return 0, err
			}
		} else if v >= 2 {
			cfg.Shards = multi[v-2]
		}
		fleet, err := cluster.New(cfg)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		out, err := fleet.Run(reqs)
		wall := time.Since(start)
		if err != nil {
			return 0, err
		}
		if rep == 0 {
			t := perfTally{requeues: out.Requeues, control: out.Control}
			for _, res := range out.Results {
				if res.Rejected {
					t.rejected++
				} else {
					t.served++
				}
			}
			tally[v] = t
		}
		return wall, nil
	})
	if err != nil {
		return perfRun{}, ctrlRun{}, nil, err
	}

	base := tally[0]
	run := perfRun{
		Devices: devices, Requests: requests, Router: router, WallMS: best[0],
		Served: base.served, Rejected: base.rejected, Requeues: base.requeues,
		EventsPerSec: float64(base.served+base.rejected) / (best[0] / 1e3),
	}
	ctl := ctrlRun{
		Devices: devices, Requests: requests, Router: router,
		OffMS: best[0], OnMS: best[1], OverheadPct: round2((best[1] - best[0]) / best[0] * 100),
	}
	if c := tally[1].control; c != nil {
		ctl.Ticks, ctl.ScaleUps, ctl.ScaleDowns = c.Ticks, c.ScaleUps, c.ScaleDowns
	}
	row := func(ns, v int) parRun {
		return parRun{
			Devices: devices, Requests: requests, Router: router, Shards: ns,
			WallMS: best[v], SpeedupVsSeq: round2(best[0] / best[v]), Served: base.served,
			EventsPerSec: float64(requests) / (best[v] / 1e3),
		}
	}
	par := []parRun{row(1, 0)}
	for i, ns := range multi {
		if t := tally[2+i]; t.served != base.served || t.rejected != base.rejected || t.requeues != base.requeues {
			return perfRun{}, ctrlRun{}, nil, fmt.Errorf(
				"%d shards served/rejected/requeues %d/%d/%d != %d/%d/%d at 1 shard (shard counts must be bit-identical)",
				ns, t.served, t.rejected, t.requeues, base.served, base.rejected, base.requeues)
		}
		par = append(par, row(ns, 2+i))
	}
	return run, ctl, par, nil
}

// runPerfSweep executes the matrix; the perf suite has no gate beyond
// the shard-identity check.
func runPerfSweep(o suiteOpts) (any, error) {
	devList, err := parseIntList(o.perfDevices)
	if err != nil {
		return nil, fmt.Errorf("-perf-devices: %w", err)
	}
	reqList, err := parseIntList(o.perfRequests)
	if err != nil {
		return nil, fmt.Errorf("-perf-requests: %w", err)
	}
	routers, err := parseRouterList(o.perfRouters)
	if err != nil {
		return nil, fmt.Errorf("-perf-routers: %w", err)
	}
	shards, err := parseIntList(o.perfShards)
	if err != nil {
		return nil, fmt.Errorf("-perf-shards: %w", err)
	}
	report := perfReport{
		Schema:          "fasttts-bench-core/v1",
		Seed:            o.seed,
		GoVersion:       runtime.Version(),
		Current:         perfSection{Label: o.perfLabel},
		ParallelScaling: &parSection{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)},
	}
	if o.perfBaseline != "" {
		if report.Baseline, err = loadPerfBaseline(o.perfBaseline); err != nil {
			return nil, err
		}
	}
	for _, nd := range devList {
		for _, nr := range reqList {
			for _, router := range routers {
				start := time.Now()
				run, ctl, par, err := perfCell(nd, nr, router, shards, o.seed)
				if err != nil {
					return nil, fmt.Errorf("perf %dx%d/%s: %w", nd, nr, router, err)
				}
				report.Current.Runs = append(report.Current.Runs, run)
				report.ControllerOverhead = append(report.ControllerOverhead, ctl)
				report.ParallelScaling.Runs = append(report.ParallelScaling.Runs, par...)
				var scaling strings.Builder
				for _, p := range par[1:] {
					fmt.Fprintf(&scaling, "  @%d %.2fx", p.Shards, p.SpeedupVsSeq)
				}
				fmt.Fprintf(o.log, "perf %4d dev x %6d req %-10s %10.1f ms  ctl %+6.1f%%%s (%s)\n",
					nd, nr, router, run.WallMS, ctl.OverheadPct, scaling.String(), time.Since(start).Round(time.Millisecond))
			}
		}
	}
	if report.Baseline != nil {
		report.Speedups = perfSpeedups(report.Baseline.Runs, report.Current.Runs)
	}
	return report, nil
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

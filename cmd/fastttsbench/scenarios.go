package main

// Scenario-regression mode: sweep the named workload-scenario matrix
// (every catalog scenario × server and cluster targets), compare each
// run's canonical trace against the committed goldens, and emit
// BENCH_scenarios.json — the artifact the CI scenario-conformance gate
// consumes. Any golden mismatch (or missing golden when -golden is set)
// makes the sweep fail with a nonzero exit.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fasttts"
	"fasttts/internal/trace"
)

// scenarioCell is one matrix entry of the regression report.
type scenarioCell struct {
	Scenario      string  `json:"scenario"`
	Target        string  `json:"target"`
	Requests      int     `json:"requests"`
	Served        int     `json:"served"`
	Rejected      int     `json:"rejected"`
	Makespan      float64 `json:"makespan"`
	MeanLatency   float64 `json:"mean_latency"`
	P99Latency    float64 `json:"p99_latency"`
	Goodput       float64 `json:"goodput"`
	SLOAttainment float64 `json:"slo_attainment"`
	Requeues      int     `json:"requeues"`
	FailedDevices int     `json:"failed_devices"`
	ElapsedMS     int64   `json:"elapsed_ms"`
	// Golden is the conformance verdict: "match", "mismatch", "missing",
	// or "skipped" (no -golden directory given). Detail carries the first
	// divergence on mismatch.
	Golden string `json:"golden"`
	Detail string `json:"detail,omitempty"`
}

// scenarioReport is the BENCH_scenarios.json document.
type scenarioReport struct {
	Schema    string         `json:"schema"`
	Seed      uint64         `json:"seed"`
	GoldenDir string         `json:"golden_dir,omitempty"`
	Cells     []scenarioCell `json:"cells"`
	OK        bool           `json:"ok"`
}

// runScenarioRegress sweeps the matrix; its gate fails when any cell
// fails conformance.
func runScenarioRegress(o suiteOpts) (any, error) {
	report := scenarioReport{Schema: "fasttts-bench-scenarios/v1", Seed: o.seed, GoldenDir: o.golden, OK: true}
	for _, info := range fasttts.Scenarios() {
		for _, target := range []fasttts.ScenarioTarget{fasttts.ScenarioServer, fasttts.ScenarioCluster} {
			start := time.Now()
			run, err := fasttts.RunScenario(info.Name, fasttts.ScenarioOptions{
				Target: target, Requests: o.requests, Seed: o.seed,
			})
			if err != nil {
				return nil, fmt.Errorf("scenario %s/%s: %w", info.Name, target, err)
			}
			got, err := run.TraceJSONL()
			if err != nil {
				return nil, fmt.Errorf("scenario %s/%s: %w", info.Name, target, err)
			}
			cell := scenarioCell{
				Scenario:      run.Name,
				Target:        string(target),
				Requests:      len(run.Requests),
				Served:        run.Stats.Served,
				Rejected:      run.Stats.Rejected,
				Makespan:      run.Stats.Makespan,
				MeanLatency:   run.Stats.MeanLatency,
				P99Latency:    run.Stats.P99Latency,
				Goodput:       run.Stats.Goodput,
				SLOAttainment: run.Stats.SLOAttainment,
				ElapsedMS:     time.Since(start).Milliseconds(),
				Golden:        "skipped",
			}
			if run.FleetStats != nil {
				cell.Requeues = run.FleetStats.Requeues
				cell.FailedDevices = run.FleetStats.FailedDevices
			}
			if o.golden != "" {
				cell.Golden, cell.Detail = conform(o.golden, run.Name, target, got)
				if cell.Golden != "match" {
					report.OK = false
				}
			}
			report.Cells = append(report.Cells, cell)
		}
	}

	if !report.OK {
		return report, fmt.Errorf("scenario conformance failed (see BENCH_scenarios.json cells with golden != match; regenerate intentional changes with `make golden`)")
	}
	return report, nil
}

// conform compares a produced trace against its committed golden.
func conform(goldenDir, name string, target fasttts.ScenarioTarget, got []byte) (verdict, detail string) {
	path := filepath.Join(goldenDir, fmt.Sprintf("%s.%s.jsonl", name, target))
	want, err := os.ReadFile(path)
	if err != nil {
		return "missing", fmt.Sprintf("no golden at %s", path)
	}
	if ok, detail := trace.Conform(got, want); !ok {
		return "mismatch", detail
	}
	return "match", ""
}

package main

// Trace-sweep mode: price the span flight recorder and prove the
// latency-attribution contract on the full scenario catalog, emitting
// BENCH_trace.json plus a representative Perfetto trace.json:
//
//   - attribution cells: every catalog scenario runs on the cluster
//     target with the recorder attached; the span stream must pass
//     lifecycle verification and every finished request's attribution
//     components (queue + service + re-prefill + straggler + preemption)
//     must sum to its measured wall latency within 1 ulp, with the
//     attribution's wall agreeing bit-exactly with the fleet result.
//   - overhead cells: recorder-off vs recorder-on wall-clock on long
//     streams, best-of-N so scheduler noise cancels; recorder-on must
//     cost at most 10% — tracing is an always-affordable observer.
import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"fasttts"
)

// tracePerfetto is the companion Perfetto export of the representative
// scenario, written next to BENCH_trace.json.
const tracePerfetto = "trace.json"

// traceOverheadRounds is the best-of-N repetition count per engine.
const traceOverheadRounds = 5

// traceOverheadGate is the maximum tolerated recorder-on wall-clock
// overhead on the perf cells.
const traceOverheadGate = 0.10

// traceAttrCell is one scenario's attribution-exactness measurement.
type traceAttrCell struct {
	Scenario   string `json:"scenario"`
	Requests   int    `json:"requests"`
	Served     int    `json:"served"`
	Attributed int    `json:"attributed"`
	Spans      int    `json:"spans"`
	// Mismatches counts requests whose components missed their wall
	// latency by more than 1 ulp or disagreed with the fleet result.
	Mismatches int   `json:"mismatches"`
	SumExact   bool  `json:"sum_exact"`
	ElapsedMS  int64 `json:"elapsed_ms"`
}

// traceOverheadCell is one scenario's recorder-off vs recorder-on
// timing (best-of-N wall clock per engine).
type traceOverheadCell struct {
	Scenario string  `json:"scenario"`
	Requests int     `json:"requests"`
	Spans    int     `json:"spans"`
	OffMS    float64 `json:"off_ms"`
	OnMS     float64 `json:"on_ms"`
	// Overhead is OnMS/OffMS − 1 (negative means on measured faster —
	// pure timing noise).
	Overhead float64 `json:"overhead"`
	OK       bool    `json:"ok"`
}

// traceReport is the BENCH_trace.json document.
type traceReport struct {
	Schema      string              `json:"schema"`
	Seed        uint64              `json:"seed"`
	Requests    int                 `json:"requests"` // 0 = scenario defaults (attribution cells)
	Attribution []traceAttrCell     `json:"attribution"`
	Overhead    []traceOverheadCell `json:"overhead"`
	Verdict     string              `json:"verdict"`
	OK          bool                `json:"ok"`
}

// runTraceSweep measures the catalog and, with an output directory,
// writes the representative Perfetto trace; its gate fails when the
// overhead or attribution-sum gate fails.
func runTraceSweep(o suiteOpts) (any, error) {
	requests, seed := o.requests, o.seed
	report := traceReport{
		Schema:   "fasttts-bench-trace/v1",
		Seed:     seed,
		Requests: requests,
	}

	// Attribution gate: the whole catalog, cluster target.
	badAttr := 0
	for _, info := range fasttts.Scenarios() {
		cell, err := measureTraceAttr(info.Name, requests, seed)
		if err != nil {
			return nil, fmt.Errorf("trace sweep %s: %w", info.Name, err)
		}
		if !cell.SumExact {
			badAttr++
		}
		report.Attribution = append(report.Attribution, cell)
	}

	// Overhead gate: long streams so per-run wall clock dwarfs timer
	// noise; best-of-N per engine cancels the rest.
	overheadReqs := requests
	if overheadReqs < 1200 {
		overheadReqs = 1200
	}
	badOverhead := 0
	for _, name := range []string{"steady", "heavy-tail", "fleet-churn"} {
		cell, err := measureTraceOverhead(name, overheadReqs, seed)
		if err != nil {
			return nil, fmt.Errorf("trace sweep %s: %w", name, err)
		}
		if !cell.OK {
			badOverhead++
		}
		report.Overhead = append(report.Overhead, cell)
	}

	report.OK = badAttr == 0 && badOverhead == 0
	worst := 0.0
	for _, c := range report.Overhead {
		if c.Overhead > worst {
			worst = c.Overhead
		}
	}
	report.Verdict = fmt.Sprintf(
		"attribution exact on %d/%d scenarios (1-ulp component sums); worst recorder-on overhead %.1f%% (gate %.0f%%)",
		len(report.Attribution)-badAttr, len(report.Attribution), 100*worst, 100*traceOverheadGate)

	if o.out != "" {
		path := filepath.Join(o.out, tracePerfetto)
		if err := writeTracePerfetto(path, requests, seed); err != nil {
			return nil, err
		}
		fmt.Fprintf(o.log, "wrote %s\n", path)
	}
	if !report.OK {
		return report, fmt.Errorf("trace sweep: gate failed — %s", report.Verdict)
	}
	return report, nil
}

// measureTraceAttr runs one scenario with the recorder attached and
// checks the attribution contract request by request.
func measureTraceAttr(name string, requests int, seed uint64) (traceAttrCell, error) {
	start := time.Now()
	rec := fasttts.NewRecorder()
	run, err := fasttts.RunScenario(name, fasttts.ScenarioOptions{
		Target:   fasttts.ScenarioCluster,
		Requests: requests,
		Seed:     seed,
		Trace:    rec,
	})
	if err != nil {
		return traceAttrCell{}, err
	}
	cell := traceAttrCell{
		Scenario: name,
		Requests: len(run.Requests),
		Served:   run.Stats.Served,
		Spans:    rec.SpanCount(),
	}
	if err := rec.Verify(); err != nil {
		return traceAttrCell{}, fmt.Errorf("span lifecycle invariants: %w", err)
	}
	byTag := map[int]fasttts.FleetResult{}
	for _, r := range run.Fleet.Results {
		byTag[r.Tag] = r
	}
	for _, a := range rec.Attribution() {
		cell.Attributed++
		sum := (((a.Queue + a.Service) + a.Reprefill) + a.Straggler) + a.Preemption
		tol := math.Nextafter(math.Abs(a.Wall), math.Inf(1)) - math.Abs(a.Wall)
		if math.Abs(sum-a.Wall) > tol {
			cell.Mismatches++
			continue
		}
		if r, ok := byTag[a.Tag]; !ok || r.Rejected || a.Wall != r.WallLatency {
			cell.Mismatches++
		}
	}
	cell.SumExact = cell.Mismatches == 0 && cell.Attributed == cell.Served
	cell.ElapsedMS = time.Since(start).Milliseconds()
	return cell, nil
}

// measureTraceOverhead times one scenario recorder-off vs recorder-on,
// interleaved best-of-N.
func measureTraceOverhead(name string, requests int, seed uint64) (traceOverheadCell, error) {
	cell := traceOverheadCell{Scenario: name, Requests: requests}
	// Variant 0 runs recorder-off, variant 1 recorder-on.
	best, err := bestOf(2, traceOverheadRounds, func(v, _ int) (time.Duration, error) {
		var rec *fasttts.Recorder
		if v == 1 {
			rec = fasttts.NewRecorder()
		}
		start := time.Now()
		_, err := fasttts.RunScenario(name, fasttts.ScenarioOptions{
			Target:   fasttts.ScenarioCluster,
			Requests: requests,
			Seed:     seed,
			Trace:    rec,
		})
		wall := time.Since(start)
		if rec != nil {
			cell.Spans = rec.SpanCount()
		}
		return wall, err
	})
	if err != nil {
		return cell, err
	}
	cell.OffMS, cell.OnMS = best[0], best[1]
	cell.Overhead = cell.OnMS/cell.OffMS - 1
	cell.OK = cell.Overhead <= traceOverheadGate
	return cell, nil
}

// writeTracePerfetto exports a representative traced run (fleet-churn:
// failures, requeues, heterogeneous devices) for the CI artifact and
// for loading into ui.perfetto.dev.
func writeTracePerfetto(path string, requests int, seed uint64) error {
	rec := fasttts.NewRecorder()
	if _, err := fasttts.RunScenario("fleet-churn", fasttts.ScenarioOptions{
		Target:   fasttts.ScenarioCluster,
		Requests: requests,
		Seed:     seed,
		Trace:    rec,
	}); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WritePerfetto(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

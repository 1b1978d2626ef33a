package main

// Metrics-sweep mode: quantify the streaming quantile sketch against the
// exact sort-based path and prove the constant-memory claim. The sweep
// emits BENCH_metrics.json with two kinds of cells:
//
//   - synthetic: each internal/scenario metrics stream (uniform,
//     heavy-tail, bimodal, and the 10M-request mega-steady) is generated
//     twice — once folded sample-by-sample into a metrics.ServeAccum
//     with heap usage measured around the pass (the bounded-RSS
//     evidence: 10M requests, ~20 KiB of aggregation state), and once
//     into a plain wall-latency buffer for the exact reference;
//   - scenario: every catalog scenario runs on the cluster target and
//     its served stream is summarized through both paths.
//
// Every cell asserts the sketch's p50/p95/p99 and mean relative error
// against the documented bound (metrics.SketchRelErr); any violation —
// or an unbounded heap on mega-steady — fails the report (OK=false,
// nonzero exit). CI commits the artifact so the error margins are
// reviewable release over release.

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"fasttts"
	"fasttts/internal/metrics"
	"fasttts/internal/scenario"
)

// metricsHeapBudget bounds the streaming pass's retained-heap growth.
// The accumulator itself is ~20 KiB; the budget leaves room for
// allocator and runtime noise while still refuting any O(requests)
// retention (10M retained samples would be hundreds of MiB).
const metricsHeapBudget = 8 << 20

// metricsCell is one stream × path comparison.
type metricsCell struct {
	Stream   string `json:"stream"`
	Kind     string `json:"kind"` // synthetic or scenario
	Requests int    `json:"requests"`
	Served   int    `json:"served"`
	Rejected int    `json:"rejected"`

	ExactP50  float64 `json:"exact_p50"`
	ExactP95  float64 `json:"exact_p95"`
	ExactP99  float64 `json:"exact_p99"`
	ExactMean float64 `json:"exact_mean"`

	SketchP50  float64 `json:"sketch_p50"`
	SketchP95  float64 `json:"sketch_p95"`
	SketchP99  float64 `json:"sketch_p99"`
	SketchMean float64 `json:"sketch_mean"`

	RelErrP50  float64 `json:"rel_err_p50"`
	RelErrP95  float64 `json:"rel_err_p95"`
	RelErrP99  float64 `json:"rel_err_p99"`
	RelErrMean float64 `json:"rel_err_mean"`

	// AccumStateBytes is the streaming accumulator's constant footprint;
	// HeapDeltaBytes the measured retained-heap growth across the
	// streaming pass (synthetic cells only; -1 when not measured).
	AccumStateBytes int   `json:"accum_state_bytes"`
	HeapDeltaBytes  int64 `json:"heap_delta_bytes"`
	ElapsedMS       int64 `json:"elapsed_ms"`
	OK              bool  `json:"ok"`
}

// metricsReport is the BENCH_metrics.json document.
type metricsReport struct {
	Schema    string        `json:"schema"`
	Seed      uint64        `json:"seed"`
	Bound     float64       `json:"bound"`
	Cells     []metricsCell `json:"cells"`
	MaxRelErr float64       `json:"max_rel_err"`
	Verdict   string        `json:"verdict"`
	OK        bool          `json:"ok"`
}

// relErr is the cell's error metric: relative when the exact value is
// inside the sketch's accuracy range, absolute-vs-1µs below it.
func relErr(sketch, exact float64) float64 {
	if exact <= 1e-6 {
		return math.Abs(sketch-exact) / 1e-6
	}
	return math.Abs(sketch-exact) / exact
}

// fillComparison computes the sketch-vs-exact columns and the cell's
// bound check from an exact wall-latency reference.
func (c *metricsCell) fillComparison(walls []float64, acc *metrics.ServeAccum, bound float64) {
	st := acc.Stats()
	c.Served = st.Served
	c.Rejected = st.Rejected
	c.SketchP50, c.SketchP95, c.SketchP99 = st.P50Latency, st.P95Latency, st.P99Latency
	c.SketchMean = st.MeanLatency
	c.AccumStateBytes = acc.StateBytes()

	if len(walls) == 0 {
		c.OK = st.Served == 0
		return
	}
	var sum float64
	for _, w := range walls {
		sum += w
	}
	c.ExactP50 = metrics.Percentile(walls, 50)
	c.ExactP95 = metrics.Percentile(walls, 95)
	c.ExactP99 = metrics.Percentile(walls, 99)
	c.ExactMean = sum / float64(len(walls))

	c.RelErrP50 = relErr(c.SketchP50, c.ExactP50)
	c.RelErrP95 = relErr(c.SketchP95, c.ExactP95)
	c.RelErrP99 = relErr(c.SketchP99, c.ExactP99)
	c.RelErrMean = relErr(c.SketchMean, c.ExactMean)
	c.OK = st.Served == len(walls) &&
		c.RelErrP50 <= bound && c.RelErrP95 <= bound &&
		c.RelErrP99 <= bound && c.RelErrMean <= bound
}

// runSyntheticCell measures one synthetic stream: a streaming pass under
// heap instrumentation, then a buffered exact reference pass.
func runSyntheticCell(m scenario.MetricsStream, requests int, seed uint64, bound float64) metricsCell {
	n := m.Requests
	if requests > 0 {
		n = requests
	}
	cell := metricsCell{Stream: m.Name, Kind: "synthetic", Requests: n}
	start := time.Now()

	// Streaming pass: the only retained state is the accumulator, and the
	// heap delta across the pass proves it.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	acc := metrics.NewServeAccum(0)
	m.Emit(seed, requests, acc.Observe)
	runtime.GC()
	runtime.ReadMemStats(&after)
	cell.HeapDeltaBytes = int64(after.HeapAlloc) - int64(before.HeapAlloc)

	// Exact reference pass: regenerate the identical stream, retaining
	// only the wall latencies the exact percentiles need.
	walls := make([]float64, 0, n)
	m.Emit(seed, requests, func(s metrics.ServeSample) {
		if !s.Rejected {
			walls = append(walls, s.Finish-s.Arrival)
		}
	})
	cell.fillComparison(walls, acc, bound)
	if cell.HeapDeltaBytes > metricsHeapBudget {
		cell.OK = false
	}
	cell.ElapsedMS = time.Since(start).Milliseconds()
	return cell
}

// runScenarioCell summarizes one catalog scenario's served stream
// through both paths.
func runScenarioCell(name string, seed uint64, bound float64) (metricsCell, error) {
	cell := metricsCell{Stream: name, Kind: "scenario", HeapDeltaBytes: -1}
	start := time.Now()
	run, err := fasttts.RunScenario(name, fasttts.ScenarioOptions{
		Target: fasttts.ScenarioCluster,
		Seed:   seed,
	})
	if err != nil {
		return cell, fmt.Errorf("metrics sweep %s: %w", name, err)
	}
	cell.Requests = len(run.Requests)
	acc := metrics.NewServeAccum(0)
	var walls []float64
	for _, r := range run.Fleet.Results {
		sm := metrics.ServeSample{
			Arrival: r.ArrivalTime, Start: r.StartTime, Finish: r.FinishTime,
			Tokens: r.UsefulTokens, Rejected: r.Rejected,
		}
		acc.Observe(sm)
		if !r.Rejected {
			walls = append(walls, r.FinishTime-r.ArrivalTime)
		}
	}
	cell.fillComparison(walls, acc, bound)
	cell.ElapsedMS = time.Since(start).Milliseconds()
	return cell, nil
}

// runMetricsSweep measures every synthetic stream and catalog scenario;
// its gate fails when any cell violates the sketch's documented error
// bound or the heap budget.
func runMetricsSweep(o suiteOpts) (any, error) {
	report := metricsReport{
		Schema: "fasttts-bench-metrics/v1",
		Seed:   o.seed,
		Bound:  metrics.SketchRelErr,
		OK:     true,
	}
	for _, m := range scenario.MetricsStreams() {
		cell := runSyntheticCell(m, o.requests, o.seed, report.Bound)
		report.Cells = append(report.Cells, cell)
		fmt.Fprintf(o.log, "metrics %-18s %8d reqs  p99 err %.5f  heap %+d B  %dms\n",
			cell.Stream, cell.Requests, cell.RelErrP99, cell.HeapDeltaBytes, cell.ElapsedMS)
	}
	for _, sc := range fasttts.Scenarios() {
		cell, err := runScenarioCell(sc.Name, o.seed, report.Bound)
		if err != nil {
			return nil, err
		}
		report.Cells = append(report.Cells, cell)
		fmt.Fprintf(o.log, "metrics %-18s %8d reqs  p99 err %.5f  %dms\n",
			cell.Stream, cell.Requests, cell.RelErrP99, cell.ElapsedMS)
	}
	for _, c := range report.Cells {
		for _, e := range []float64{c.RelErrP50, c.RelErrP95, c.RelErrP99, c.RelErrMean} {
			if e > report.MaxRelErr {
				report.MaxRelErr = e
			}
		}
		if !c.OK {
			report.OK = false
		}
	}
	report.Verdict = fmt.Sprintf(
		"max sketch-vs-exact relative error %.5f across %d cells (bound %.5f); mega-steady streaming heap delta within %d B",
		report.MaxRelErr, len(report.Cells), report.Bound, metricsHeapBudget)

	if !report.OK {
		return report, fmt.Errorf("metrics sweep: a cell violated the sketch error bound or heap budget — %s", report.Verdict)
	}
	return report, nil
}

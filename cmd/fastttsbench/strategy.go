package main

// Strategy-sweep mode: quantify what the test-time-compute strategies
// buy on their home-turf scenarios. Each cell serves one scenario's
// stream on the cluster target under one strategy override — same
// arrivals, same problems, same fleet — and emits BENCH_strategy.json:
//
//   - first-finish-mix: the AIME-heavy stream where full-beam keeps
//     searching long after the first chain has converged. first-finish
//     must strictly beat full-beam on p99 wall latency, with both cells
//     carrying the same accuracy accounting (majority vote over
//     finished paths) so the compute saving is priced in answers.
//   - hedged-tail: the straggler-skewed quiet fleet. hedged replication
//     must strictly beat full-beam on p99 — the cross-device twin turns
//     straggler-routed tails into fast-device latencies.
//
// Per scenario the cells also feed metrics.StrategyFrontier, recording
// which strategies survive on the tokens-vs-p99 Pareto plane.
import (
	"fmt"
	"time"

	"fasttts"
	"fasttts/internal/metrics"
)

// strategyCell is one scenario × strategy measurement.
type strategyCell struct {
	Scenario         string  `json:"scenario"`
	Strategy         string  `json:"strategy"`
	Requests         int     `json:"requests"`
	Served           int     `json:"served"`
	TokensPerRequest float64 `json:"tokens_per_request"`
	MeanLatency      float64 `json:"mean_latency"`
	P95Latency       float64 `json:"p95_latency"`
	P99Latency       float64 `json:"p99_latency"`
	Accuracy         float64 `json:"accuracy"`
	SLOAttainment    float64 `json:"slo_attainment"`
	ElapsedMS        int64   `json:"elapsed_ms"`
}

// strategyReport is the BENCH_strategy.json document.
type strategyReport struct {
	Schema   string         `json:"schema"`
	Seed     uint64         `json:"seed"`
	Requests int            `json:"requests"` // 0 = scenario defaults
	Cells    []strategyCell `json:"cells"`
	// Frontier lists, per scenario, the strategies surviving on the
	// tokens-vs-p99 Pareto plane (metrics.StrategyFrontier order).
	Frontier map[string][]string `json:"frontier"`
	Verdict  string              `json:"verdict"`
	OK       bool                `json:"ok"`
}

// runStrategySweep measures the scenario × strategy matrix; its gate
// fails when a success metric does not hold.
func runStrategySweep(o suiteOpts) (any, error) {
	sweeps := []struct {
		scenario   string
		strategies []string
	}{
		{"first-finish-mix", []string{"full-beam", "first-finish", "first-finish:4", "deadline"}},
		{"hedged-tail", []string{"full-beam", "first-finish", "hedged"}},
	}
	report := strategyReport{
		Schema:   "fasttts-bench-strategy/v1",
		Seed:     o.seed,
		Requests: o.requests,
		Frontier: map[string][]string{},
	}
	p99 := map[string]map[string]float64{}
	acc := map[string]map[string]float64{}
	for _, sw := range sweeps {
		p99[sw.scenario] = map[string]float64{}
		acc[sw.scenario] = map[string]float64{}
		var points []metrics.StrategyPoint
		for _, strategy := range sw.strategies {
			start := time.Now()
			run, err := fasttts.RunScenario(sw.scenario, fasttts.ScenarioOptions{
				Target:   fasttts.ScenarioCluster,
				Requests: o.requests,
				Seed:     o.seed,
				Strategy: strategy,
			})
			if err != nil {
				return nil, fmt.Errorf("strategy sweep %s/%s: %w", sw.scenario, strategy, err)
			}
			cell := measureStrategyCell(run)
			cell.Strategy = strategy
			cell.ElapsedMS = time.Since(start).Milliseconds()
			report.Cells = append(report.Cells, cell)
			p99[sw.scenario][strategy] = cell.P99Latency
			acc[sw.scenario][strategy] = cell.Accuracy
			points = append(points, metrics.StrategyPoint{
				Strategy:         strategy,
				TokensPerRequest: cell.TokensPerRequest,
				P99Latency:       cell.P99Latency,
				Accuracy:         cell.Accuracy,
			})
		}
		for _, pt := range metrics.StrategyFrontier(points) {
			report.Frontier[sw.scenario] = append(report.Frontier[sw.scenario], pt.Strategy)
		}
	}

	// Success metrics: each strategy must strictly win the tail on its
	// home-turf scenario against the full beam on the identical stream.
	ffGain := p99["first-finish-mix"]["full-beam"] - p99["first-finish-mix"]["first-finish"]
	hedgeGain := p99["hedged-tail"]["full-beam"] - p99["hedged-tail"]["hedged"]
	accDelta := acc["first-finish-mix"]["first-finish"] - acc["first-finish-mix"]["full-beam"]
	report.OK = ffGain > 0 && hedgeGain > 0
	report.Verdict = fmt.Sprintf(
		"first-finish p99 gain over full-beam: %.2fs (accuracy delta %+.3f); hedged p99 gain: %.2fs (want both gains > 0)",
		ffGain, accDelta, hedgeGain)

	if !report.OK {
		return report, fmt.Errorf("strategy sweep: success metric failed — %s", report.Verdict)
	}
	return report, nil
}

// measureStrategyCell reduces one cluster run to a sweep cell. Accuracy
// is majority vote over each served request's finished paths — the same
// accounting for every strategy, so cheaper cells can't hide wrong
// answers.
func measureStrategyCell(run *fasttts.ScenarioRun) strategyCell {
	st := run.FleetStats
	var tokens int64
	served, correct := 0, 0
	for _, r := range run.Fleet.Results {
		if r.Rejected {
			continue
		}
		served++
		tokens += r.UsefulTokens
		if r.Top1Correct() {
			correct++
		}
	}
	cell := strategyCell{
		Scenario:      run.Name,
		Requests:      len(run.Requests),
		Served:        st.Served,
		MeanLatency:   st.MeanLatency,
		P95Latency:    st.P95Latency,
		P99Latency:    st.P99Latency,
		SLOAttainment: st.SLOAttainment,
	}
	if served > 0 {
		cell.TokensPerRequest = float64(tokens) / float64(served)
		cell.Accuracy = float64(correct) / float64(served)
	}
	return cell
}

package main

// Cache-sweep mode: quantify what the KV memory plane buys. The sweep
// serves the cache-thrash scenario's few-shot stream (prompts of ~4K
// tokens, ~110 MiB of KV state each) on the cluster target under each
// router × capacity regime and emits BENCH_cache.json:
//
//   - constrained: the scenario's own tight per-device planes, where the
//     18-prompt working set (~2 GiB) cannot fit scattered, so eviction
//     makes prompt re-prefill a real, recurring cost;
//   - unconstrained: planes big enough that every prompt stays resident
//     on a device after first touch;
//   - uncached: the plane disabled — reuse is unmodeled and free, the
//     pure load-balancing baseline.
//
// The success metric: residency-aware routing (cache-aware, prefix) must
// beat load-only jsq on tail latency by MORE when cache-constrained than
// when capacity is plentiful — locality only matters when memory is
// scarce. least-work cells ride along as the load-only twin of
// cache-aware (same cost shape, no residency term).
import (
	"fmt"
	"time"

	"fasttts"
)

// cacheSweepRequests is the default stream length: long enough that the
// unconstrained regime reaches its all-resident steady state (every
// device has seen every prompt) while the constrained regime keeps
// thrashing — that contrast is what the sweep exists to show.
const cacheSweepRequests = 72

// cacheConstrainedBytes pins the constrained regime to the cache-thrash
// scenario's own per-device plane capacity (~4-5 resident prompts);
// cacheUnconstrainedBytes is large enough that nothing is ever evicted.
const (
	cacheConstrainedBytes   = 512 << 20
	cacheUnconstrainedBytes = 8 << 30
)

// cacheCell is one router × capacity-regime measurement.
type cacheCell struct {
	Scenario         string  `json:"scenario"`
	Router           string  `json:"router"`
	Regime           string  `json:"regime"` // constrained, unconstrained, uncached
	KVPlaneBytes     int64   `json:"kv_plane_bytes"`
	Requests         int     `json:"requests"`
	Served           int     `json:"served"`
	MeanLatency      float64 `json:"mean_latency"`
	P95Latency       float64 `json:"p95_latency"`
	P99Latency       float64 `json:"p99_latency"`
	CacheHitRate     float64 `json:"cache_hit_rate"`
	ReprefillSeconds float64 `json:"reprefill_seconds"`
	ImbalanceCV      float64 `json:"imbalance_cv"`
	ElapsedMS        int64   `json:"elapsed_ms"`
}

// cacheReport is the BENCH_cache.json document.
type cacheReport struct {
	Schema   string      `json:"schema"`
	Scenario string      `json:"scenario"`
	Seed     uint64      `json:"seed"`
	Requests int         `json:"requests"`
	Cells    []cacheCell `json:"cells"`
	// ConstrainedP99 / UnconstrainedP99 index p99 latency by router for
	// the two plane-on regimes; Verdict summarizes the success metric.
	ConstrainedP99   map[string]float64 `json:"constrained_p99"`
	UnconstrainedP99 map[string]float64 `json:"unconstrained_p99"`
	Verdict          string             `json:"verdict"`
	OK               bool               `json:"ok"`
}

// runCacheSweep measures the router × capacity matrix; its gate fails
// when the success metric does not hold.
func runCacheSweep(o suiteOpts) (any, error) {
	const scenarioName = "cache-thrash"
	requests, seed := o.requests, o.seed
	if requests <= 0 {
		requests = cacheSweepRequests
	}
	routers := []string{"jsq", "least-work", "prefix", "cache-aware"}
	regimes := []struct {
		name  string
		bytes int64
	}{
		{"constrained", cacheConstrainedBytes},
		{"unconstrained", cacheUnconstrainedBytes},
		{"uncached", -1},
	}
	report := cacheReport{
		Schema:           "fasttts-bench-cache/v1",
		Scenario:         scenarioName,
		Seed:             seed,
		Requests:         requests,
		ConstrainedP99:   map[string]float64{},
		UnconstrainedP99: map[string]float64{},
	}
	for _, regime := range regimes {
		for _, router := range routers {
			start := time.Now()
			run, err := fasttts.RunScenario(scenarioName, fasttts.ScenarioOptions{
				Target:       fasttts.ScenarioCluster,
				Requests:     requests,
				Seed:         seed,
				Router:       router,
				KVPlaneBytes: regime.bytes,
			})
			if err != nil {
				return nil, fmt.Errorf("cache sweep %s/%s: %w", router, regime.name, err)
			}
			st := run.FleetStats
			report.Cells = append(report.Cells, cacheCell{
				Scenario:         scenarioName,
				Router:           router,
				Regime:           regime.name,
				KVPlaneBytes:     regime.bytes,
				Requests:         len(run.Requests),
				Served:           st.Served,
				MeanLatency:      st.MeanLatency,
				P95Latency:       st.P95Latency,
				P99Latency:       st.P99Latency,
				CacheHitRate:     st.CacheHitRate,
				ReprefillSeconds: st.ReprefillSeconds,
				ImbalanceCV:      st.ImbalanceCV,
				ElapsedMS:        time.Since(start).Milliseconds(),
			})
			switch regime.name {
			case "constrained":
				report.ConstrainedP99[router] = st.P99Latency
			case "unconstrained":
				report.UnconstrainedP99[router] = st.P99Latency
			}
		}
	}

	// Success metric: under cache pressure, residency-aware routing wins
	// the tail; with plentiful capacity its edge over jsq must shrink —
	// otherwise the cost model isn't what's driving the win.
	bestAware := report.ConstrainedP99["cache-aware"]
	if p := report.ConstrainedP99["prefix"]; p < bestAware {
		bestAware = p
	}
	conGain := report.ConstrainedP99["jsq"] - bestAware
	bestAwareUn := report.UnconstrainedP99["cache-aware"]
	if p := report.UnconstrainedP99["prefix"]; p < bestAwareUn {
		bestAwareUn = p
	}
	unGain := report.UnconstrainedP99["jsq"] - bestAwareUn
	report.OK = conGain > 0 && conGain > unGain
	report.Verdict = fmt.Sprintf(
		"constrained p99 gain over jsq: %.2fs; unconstrained: %.2fs (want constrained > 0 and > unconstrained)",
		conGain, unGain)

	if !report.OK {
		return report, fmt.Errorf("cache sweep: success metric failed — %s", report.Verdict)
	}
	return report, nil
}

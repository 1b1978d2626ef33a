package scenario

// Synthetic metrics streams: deterministic served-sample generators for
// exercising the metrics layer at request counts far beyond what the
// full serving simulation can produce. Unlike the catalog scenarios,
// nothing here routes, schedules, or solves — each stream emits
// ServeSamples one at a time through a callback, retaining nothing, so
// a 10M-request pass holds only the consumer's aggregation state in
// memory. That makes them the test bed for the streaming quantile
// sketch: the bench harness (fastttsbench -suite metrics) feeds each stream
// once into a constant-memory metrics.ServeAccum and once into the
// exact sort-based path, and asserts the sketch's p50/p95/p99 stay
// within the documented relative-error bound across distribution shapes
// an inference fleet actually produces (uniform plateaus, Pareto tails,
// bimodal fast/slow-path mixes, tight steady-state lognormals).

import (
	"fmt"
	"math"

	"fasttts/internal/metrics"
	"fasttts/internal/rng"
)

// MetricsStream is one named synthetic served-sample distribution.
type MetricsStream struct {
	Name        string
	Description string
	// Requests is the stream's default length.
	Requests int
}

// MetricsStreams is the catalog of synthetic distributions, mega-steady
// last (it is the expensive one).
func MetricsStreams() []MetricsStream {
	return []MetricsStream{
		{
			Name:        "metrics-uniform",
			Description: "wall latency uniform on [0.5, 60)s — flat density, every percentile mid-bucket",
			Requests:    200_000,
		},
		{
			Name:        "metrics-heavy-tail",
			Description: "Pareto(α=1.3) service tail capped at 9×10⁴s — p99 far from the body",
			Requests:    200_000,
		},
		{
			Name:        "metrics-bimodal",
			Description: "70% fast path N(8,2)s, 30% slow path N(120,15)s, 2% rejected — percentiles straddle the modes",
			Requests:    200_000,
		},
		{
			Name:        "mega-steady",
			Description: "10M-request steady state, lognormal service around 20s — the bounded-RSS scale proof",
			Requests:    10_000_000,
		},
	}
}

// MetricsStreamByName finds a stream in the catalog.
func MetricsStreamByName(name string) (MetricsStream, error) {
	for _, m := range MetricsStreams() {
		if m.Name == name {
			return m, nil
		}
	}
	return MetricsStream{}, fmt.Errorf("scenario: unknown metrics stream %q", name)
}

// Emit generates the stream deterministically from the seed and hands
// each sample to emit in arrival order, retaining nothing. requests
// overrides the stream's default length when positive (tests run scaled
// -down passes; the bench harness runs the full default).
func (m MetricsStream) Emit(seed uint64, requests int, emit func(metrics.ServeSample)) {
	n := m.Requests
	if requests > 0 {
		n = requests
	}
	r := rng.New(seed).Child("metrics-stream/" + m.Name)
	for i := 0; i < n; i++ {
		emit(m.sample(r, i))
	}
}

// sample draws one served sample. Every latency stays inside the
// sketch's relative-accuracy range [1µs, 10⁵s] so the error-bound
// assertion is exact, not vacuous at the clamped edges.
func (m MetricsStream) sample(r *rng.Stream, i int) metrics.ServeSample {
	const spacing = 1e-3 // arrival cadence; irrelevant to latency shape
	arrival := float64(i) * spacing
	var service, queue float64
	rejected := false
	switch m.Name {
	case "metrics-uniform":
		service = 0.5 + 59.5*r.Float64()
		queue = 3 * r.Float64()
	case "metrics-heavy-tail":
		// Pareto via inverse CDF: x_m / (1-u)^(1/α). α = 1.3 keeps the
		// mean finite but the variance infinite — the nastiest realistic
		// shape for a bucketed sketch.
		// Caps keep wall = queue + service under the sketch's 10⁵s range
		// ceiling so every sample carries the relative-error guarantee.
		service = math.Min(1.0/math.Pow(1-r.Float64(), 1/1.3), 9e4)
		queue = math.Min(0.2/math.Pow(1-r.Float64(), 1/1.5), 9e3)
	case "metrics-bimodal":
		if rejected = r.Float64() < 0.02; !rejected {
			if r.Float64() < 0.7 {
				service = r.Norm(8, 2)
			} else {
				service = r.Norm(120, 15)
			}
			service = math.Max(math.Abs(service), 1e-3)
			queue = math.Max(math.Abs(r.Norm(1, 0.5)), 1e-4)
		}
	case "mega-steady":
		service = r.LogNormal(math.Log(20), 0.4)
		queue = r.LogNormal(math.Log(0.5), 0.3)
	default:
		panic(fmt.Sprintf("scenario: metrics stream %q has no generator", m.Name))
	}
	if rejected {
		return metrics.ServeSample{Arrival: arrival, Rejected: true}
	}
	return metrics.ServeSample{
		Arrival: arrival,
		Start:   arrival + queue,
		Finish:  arrival + queue + service,
		Tokens:  int64(200 + r.IntN(400)),
	}
}

package cluster

// Tag-uniqueness validation, the engine's allocation pin, and
// fleet-scale micro-benchmarks for the event-heap core.

import (
	"strings"
	"testing"

	"fasttts/internal/core"
	"fasttts/internal/hw"
	"fasttts/internal/metrics"
	"fasttts/internal/model"
	"fasttts/internal/rng"
	"fasttts/internal/sched"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

// TestDuplicateTagsRejected: Run keys requeue telemetry and deferred
// prefix accounting by request Tag. Before validation existed, a stream
// with colliding tags was served silently while the collided requests
// shared one origArrival/requeue/accounting slot — a fail-stop that
// displaced one of them bumped the requeue count and rewrote the arrival
// telemetry of both, and their prefix hits landed on whichever device
// settled last. Now the collision is rejected up front with a
// descriptive error instead of corrupting the outcome.
func TestDuplicateTagsRejected(t *testing.T) {
	devices := []Device{
		{Config: devConfig(t, hw.RTX4090, 4, 42), FailAt: 5},
		{Config: devConfig(t, hw.RTX4070Ti, 4, 43)},
	}
	probs := repeatedProblems(t, 4, 2)
	reqs := taggedStream(t, probs, 0.5, 11)
	reqs[2].Tag = reqs[0].Tag // collide two distinct requests

	f, err := New(Config{Devices: devices, Router: &RoundRobin{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Run(reqs)
	if err == nil {
		t.Fatal("Run accepted a stream with duplicate tags; the old behavior silently corrupted requeue and prefix telemetry")
	}
	if !strings.Contains(err.Error(), "duplicate request tag") {
		t.Fatalf("want a descriptive duplicate-tag error, got: %v", err)
	}

	// The same stream with unique tags runs, and its telemetry is
	// coherent: every request accounted for exactly once.
	reqs = taggedStream(t, probs, 0.5, 11)
	out := runFleet(t, devices, &RoundRobin{}, 1, reqs)
	if len(out.Results) != len(reqs) {
		t.Fatalf("served %d results for %d unique-tag requests", len(out.Results), len(reqs))
	}
	seen := map[int]bool{}
	for _, r := range out.Results {
		if seen[r.Tag] {
			t.Fatalf("tag %d reported twice", r.Tag)
		}
		seen[r.Tag] = true
	}
}

// benchSpec mirrors the fastttsbench perf-suite workload: tiny prompts and
// chains so the fleet core, not token arithmetic, dominates.
var benchSpec = workload.DatasetSpec{
	Name: "BENCH", Problems: 64,
	DiffLo: 0.30, DiffHi: 0.70,
	StepLogMu: 2.3, StepLogSigma: 0.4, MinStepTokens: 4,
	MaxSteps: 2, TypicalSteps: 1.3,
	PromptLo: 8, PromptHi: 16,
	AnswerSpace: 10, QualityDriftScale: 1.0,
}

func benchFleet(tb testing.TB, n, requests int) ([]Device, []core.Request) {
	tb.Helper()
	pol, err := search.New(search.SingleCoT, 1, 1)
	if err != nil {
		tb.Fatal(err)
	}
	devs := make([]Device, n)
	for i := range devs {
		devs[i] = Device{
			Config: core.Config{
				GPU:       hw.RTX4090,
				Generator: model.Qwen25Math1_5B,
				Verifier:  model.Qwen25Math1_5B,
				Policy:    pol,
				Opts:      core.BaselineOptions(),
				Seed:      42 + uint64(i),
			},
			Policy: sched.AdmissionLimit{Inner: sched.FCFS{}, MaxInFlight: 32},
		}
	}
	root := rng.New(42)
	ds := workload.NewDataset(benchSpec, root)
	times := workload.PoissonArrivals(requests, 30*float64(n), root.Child("bench/arrivals"))
	reqs := make([]core.Request, requests)
	for i := range reqs {
		reqs[i] = core.Request{Problem: ds.Problems[i%len(ds.Problems)], Arrival: times[i], Tag: i}
	}
	return devs, reqs
}

func benchmarkFleetRun(b *testing.B, devices int, router string) {
	devs, reqs := benchFleet(b, devices, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := RouterByName(router)
		if err != nil {
			b.Fatal(err)
		}
		f, err := New(Config{Devices: devs, Router: r, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Run(reqs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFleetRun64LeastWork(b *testing.B)  { benchmarkFleetRun(b, 64, "least-work") }
func BenchmarkFleetRun64RoundRobin(b *testing.B) { benchmarkFleetRun(b, 64, "rr") }
func BenchmarkFleetRun256LeastWork(b *testing.B) { benchmarkFleetRun(b, 256, "least-work") }
func BenchmarkFleetRun256P2C(b *testing.B)       { benchmarkFleetRun(b, 256, "p2c") }

// fleetRunAllocs caps New plus Run's allocations on TestFleetRunAllocs's
// fleet. It is the count measured (Go 1.24, linux/amd64) when the fleet
// still ran one shard through a separate per-arrival loop, which
// allocated nothing per pass. The race detector allocates on its own,
// so the pin holds only without it.
const fleetRunAllocs = 30974

// TestFleetRunAllocs pins the event loop's allocations on a fixed small
// fleet: 64 devices, 500 requests, least-work routing, streaming
// metrics. Per-pass allocations in the shard passes — a worker closure
// escaping to the heap, a result slice per device group, per-pass
// sketch merges — cost about one allocation per request each and fail
// this test.
func TestFleetRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	devs, reqs := benchFleet(t, 64, 500)
	allocs := testing.AllocsPerRun(5, func() {
		f, err := New(Config{Devices: devs, Router: LeastWork{}, Seed: 42,
			Metrics: metrics.ModeStreaming, SLOLatency: 5})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Run(reqs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > fleetRunAllocs {
		t.Errorf("New+Run allocates %.0f times, want <= %d (%.1f extra per request)",
			allocs, fleetRunAllocs, (allocs-fleetRunAllocs)/float64(len(reqs)))
	}
}

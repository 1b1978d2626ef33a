package fasttts_test

import (
	"fmt"
	"io"
	"log"

	"fasttts"
)

// The quickstart: build a FastTTS deployment and solve one problem.
func Example() {
	sys, err := fasttts.New(fasttts.Config{
		GPU:       "RTX 4090",
		Pair:      fasttts.Pair1_5B1_5B,
		Algorithm: "Beam Search",
		NumBeams:  16,
		Seed:      42,
	})
	if err != nil {
		log.Fatal(err)
	}
	ds, err := fasttts.LoadDataset("AIME24", 7)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Solve(ds.Problems[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Goodput > 0, len(res.Paths) > 0, res.Iterations > 0)
	// Output: true true true
}

// Comparing the vLLM-style baseline against FastTTS on the same problem:
// the answers are identical (algorithmic equivalence), only speed changes.
func Example_baselineComparison() {
	ds, _ := fasttts.LoadDataset("AMC23", 7)
	run := func(mode fasttts.Mode) *fasttts.Result {
		sys, err := fasttts.New(fasttts.Config{NumBeams: 16, Mode: mode, Seed: 42})
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.Solve(ds.Problems[0])
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	base := run(fasttts.ModeBaseline)
	fast := run(fasttts.ModeFastTTS)
	fmt.Println(fast.Latency < base.Latency)
	fmt.Println(base.Top1Correct() == fast.Top1Correct())
	// Output:
	// true
	// true
}

// The parallel fleet engine: ClusterConfig.Parallelism shards a
// 64-device fleet across worker goroutines. The engines are
// bit-identical — same results, same stats, at any shard count — so
// parallelism is purely a wall-clock knob on large fleets.
func ExampleClusterConfig_parallelism() {
	ds, _ := fasttts.LoadDataset("MATH500", 7)
	reqs := make([]fasttts.Request, 256)
	for i := range reqs {
		reqs[i] = fasttts.Request{Problem: ds.Problems[i%32], ArrivalTime: float64(i) / 8}
	}
	run := func(parallelism int) fasttts.FleetStats {
		cl, err := fasttts.NewCluster(fasttts.ClusterConfig{
			Devices: []fasttts.DeviceSpec{
				{Config: fasttts.Config{GPU: "RTX 4090", NumBeams: 4, Seed: 1}, Count: 32},
				{Config: fasttts.Config{GPU: "RTX 4070 Ti", NumBeams: 4, Seed: 2}, Count: 32},
			},
			Router:      "least-work",
			Seed:        9,
			Parallelism: parallelism, // 0: one inline shard; >= 2: shards; < 0: one per core
		})
		if err != nil {
			log.Fatal(err)
		}
		fr, err := cl.Run(reqs)
		if err != nil {
			log.Fatal(err)
		}
		return fr.Stats()
	}
	seq, par := run(0), run(8)
	fmt.Println(len(seq.PerDevice), seq.Served == par.Served, seq.P99Latency == par.P99Latency, seq.ImbalanceCV == par.ImbalanceCV)
	// Output: 64 true true true
}

// Serving a request stream with the two-phase preemptible scheduler.
func ExampleServer() {
	ds, _ := fasttts.LoadDataset("AMC23", 7)
	srv, err := fasttts.NewServer(fasttts.Config{NumBeams: 16, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	out, err := srv.Run([]fasttts.Request{
		{Problem: ds.Problems[0], ArrivalTime: 0},
		{Problem: ds.Problems[1], ArrivalTime: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(out), out[1].QueueDelay > 0)
	// Output: 2 true
}

// The span flight recorder: attach a Recorder to a fleet run and get a
// deterministic request-lifecycle trace — Perfetto-exportable, with
// per-request latency attribution. Tracing never perturbs the run, and
// equal seeds give bit-identical traces at every Parallelism setting,
// so the span count below is pinned.
func ExampleRecorder() {
	ds, _ := fasttts.LoadDataset("MATH500", 7)
	reqs := make([]fasttts.Request, 24)
	for i := range reqs {
		reqs[i] = fasttts.Request{Problem: ds.Problems[i%8], ArrivalTime: float64(i) * 2}
	}
	rec := fasttts.NewRecorder()
	cl, err := fasttts.NewCluster(fasttts.ClusterConfig{
		Devices: []fasttts.DeviceSpec{
			{Config: fasttts.Config{GPU: "RTX 4090", NumBeams: 4, Seed: 1}},
			{Config: fasttts.Config{GPU: "RTX 4070 Ti", NumBeams: 4, Seed: 2}},
			{Config: fasttts.Config{GPU: "RTX 4070 Ti", NumBeams: 4, Seed: 3}},
			{Config: fasttts.Config{GPU: "RTX 3070 Ti", NumBeams: 4, Seed: 4}},
		},
		Router: "least-work",
		Seed:   9,
		Trace:  rec,
	})
	if err != nil {
		log.Fatal(err)
	}
	run, err := cl.Run(reqs)
	if err != nil {
		log.Fatal(err)
	}
	attr := rec.AttributionSummary()
	fmt.Println("spans:", rec.SpanCount())
	fmt.Println("verified:", rec.Verify() == nil)
	fmt.Println("attributed:", attr.Requests, "of", len(run.Results))
	fmt.Println("perfetto:", rec.WritePerfetto(io.Discard) == nil)
	// Output:
	// spans: 360
	// verified: true
	// attributed: 24 of 24
	// perfetto: true
}

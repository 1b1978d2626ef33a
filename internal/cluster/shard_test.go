package cluster

// Shard-count equivalence: the fleet engine's contract is bit-identical
// outcomes — not statistically close, not "equal within epsilon" — for
// every router, controller, fault schedule, and shard count, at any
// GOMAXPROCS. These tests compare full Outcome values (every float
// compared exactly via reflect.DeepEqual) between the single-shard run,
// which steps every device inline in canonical order, and multi-shard
// runs, across fixed scenario tables and a randomized -quick.seed
// property sweep. The committed goldens pin the single-shard run itself.

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"fasttts/internal/control"
	"fasttts/internal/core"
	"fasttts/internal/hw"
	"fasttts/internal/metrics"
	"fasttts/internal/rng"
	"fasttts/internal/sched"
	"fasttts/internal/workload"
)

// equivFleet builds a small heterogeneous fleet: a fast founder, a
// straggler, a mid-run fail-stop, and a fourth plain member.
func equivFleet(t testing.TB) []Device {
	t.Helper()
	return []Device{
		{Config: devConfig(t, hw.RTX4090, 4, 40)},
		{Config: devConfig(t, hw.RTX4070Ti, 4, 41), Slowdown: 2.5},
		{Config: devConfig(t, hw.RTX3070Ti, 4, 42), FailAt: 12},
		{Config: devConfig(t, hw.RTX4070Ti, 4, 43)},
	}
}

// equivShards are the shard counts every equivalence table compares
// against one shard: below, at, and above the 4-device fleet, plus the
// GOMAXPROCS knob.
var equivShards = []int{2, 3, 5, -1}

// runAt serves the stream at the given shard count. mk must build a
// fresh Config per call: routers and controllers carry state
// (round-robin counters, prefix homes, PID integrals), so two runs
// cannot share instances.
func runAt(t testing.TB, mk func() Config, reqs []core.Request, shards int) *Outcome {
	t.Helper()
	cfg := mk()
	cfg.Shards = shards
	return mustRun(t, cfg, reqs)
}

// diffOutcomes reports the first divergence between two outcomes in a
// reviewable form.
func diffOutcomes(t *testing.T, label string, ref, got *Outcome) {
	t.Helper()
	if reflect.DeepEqual(ref, got) {
		return
	}
	if len(ref.Results) != len(got.Results) {
		t.Errorf("%s: %d reference results vs %d", label, len(ref.Results), len(got.Results))
		return
	}
	for i := range ref.Results {
		if !reflect.DeepEqual(ref.Results[i], got.Results[i]) {
			t.Errorf("%s: result %d diverges:\n  ref: %+v\n  got: %+v", label, i, ref.Results[i], got.Results[i])
			return
		}
	}
	if !reflect.DeepEqual(ref.Devices, got.Devices) {
		t.Errorf("%s: device telemetry diverges:\n  ref: %+v\n  got: %+v", label, ref.Devices, got.Devices)
		return
	}
	if !reflect.DeepEqual(ref.Actions, got.Actions) {
		t.Errorf("%s: controller actions diverge:\n  ref: %+v\n  got: %+v", label, ref.Actions, got.Actions)
		return
	}
	t.Errorf("%s: outcomes diverge (requeues %d/%d, prefix %d+%d / %d+%d)",
		label, ref.Requeues, got.Requeues,
		ref.PrefixHits, ref.PrefixMisses, got.PrefixHits, got.PrefixMisses)
}

// TestShardedEquivalence compares shard counts for every router over a
// fleet with a straggler and a mid-run fail-stop (requeues included).
func TestShardedEquivalence(t *testing.T) {
	reqs := taggedStream(t, repeatedProblems(t, 60, 5), 2.0, 11)
	for _, router := range RouterNames() {
		mk := func() Config {
			rt, err := RouterByName(router)
			if err != nil {
				t.Fatal(err)
			}
			return Config{Devices: equivFleet(t), Router: rt, Seed: 3}
		}
		ref := runAt(t, mk, reqs, 1)
		for _, shards := range equivShards {
			diffOutcomes(t, router+"/shards="+strconv.Itoa(shards), ref, runAt(t, mk, reqs, shards))
		}
	}
}

// TestShardedEquivalenceElastic adds the control plane: a threshold
// controller with a warm pool actually scaling up and down mid-stream,
// plus budget tiers — ticks, joins, and drains all become barriers every
// shard count must respect.
func TestShardedEquivalenceElastic(t *testing.T) {
	reqs := taggedStream(t, repeatedProblems(t, 80, 5), 4.0, 13)
	warm := []Device{
		{Config: devConfig(t, hw.RTX4090, 4, 70)},
		{Config: devConfig(t, hw.RTX4070Ti, 4, 71)},
	}
	for _, router := range []string{"rr", "least-work", "prefix"} {
		for _, ctlName := range control.Names() {
			mk := func() Config {
				rt, err := RouterByName(router)
				if err != nil {
					t.Fatal(err)
				}
				ctl, err := control.ByName(ctlName)
				if err != nil {
					t.Fatal(err)
				}
				return Config{Devices: equivFleet(t), Router: rt, Seed: 3, Control: &ControlConfig{
					Controller:  ctl,
					Interval:    2.5,
					Warm:        warm,
					WarmupDelay: 1.0,
					MaxTier:     2,
					SLOLatency:  30,
				}}
			}
			ref := runAt(t, mk, reqs, 1)
			for _, shards := range equivShards {
				diffOutcomes(t, router+"/"+ctlName+"/shards="+strconv.Itoa(shards), ref, runAt(t, mk, reqs, shards))
			}
		}
	}
}

// shardedCase pairs a random fleet scenario with a random shard count.
type shardedCase struct {
	Fleet  fleetCase
	Shards int
}

func (shardedCase) Generate(r *rand.Rand, size int) reflect.Value {
	fc := fleetCase{}.Generate(r, size).Interface().(fleetCase)
	return reflect.ValueOf(shardedCase{Fleet: fc, Shards: 2 + r.Intn(7)})
}

// TestShardedEquivalenceQuick is the randomized equivalence property:
// under -quick.seed-driven fleets (random routers, stragglers,
// fail-stops, streams) and shard counts, every shard count produces the
// single-shard outcome.
func TestShardedEquivalenceQuick(t *testing.T) {
	gpus := []hw.GPU{hw.RTX4090, hw.RTX4070Ti, hw.RTX3070Ti}
	ds := workload.NewDataset(workload.MATH500, rng.New(7))
	prop := func(sc shardedCase) bool {
		c := sc.Fleet
		var devices []Device
		for i := range c.GPUs {
			devices = append(devices, Device{
				Config:   devConfig(t, gpus[c.GPUs[i]], 4, uint64(40+i)),
				Slowdown: c.Slowdowns[i],
				FailAt:   c.FailAts[i],
			})
		}
		reqs := make([]core.Request, len(c.Probs))
		for i, pi := range c.Probs {
			reqs[i] = core.Request{Problem: ds.Problems[pi], Arrival: c.Arrivals[i], Tag: i}
		}
		mk := func() Config {
			router, err := RouterByName(RouterNames()[c.Router])
			if err != nil {
				t.Fatal(err)
			}
			return Config{Devices: devices, Router: router, Seed: 3}
		}
		if !reflect.DeepEqual(runAt(t, mk, reqs, 1), runAt(t, mk, reqs, sc.Shards)) {
			t.Logf("router %s shards %d: outcomes diverge", RouterNames()[c.Router], sc.Shards)
			return false
		}
		return true
	}
	if err := quick.Check(prop, qc(t, 40)); err != nil {
		t.Error(err)
	}
}

// TestShardedGOMAXPROCSIndependent proves worker scheduling cannot leak
// into results: the same sharded run at GOMAXPROCS 1 and 8 is
// bit-identical (on any host — the property holds even when the host
// has a single core, since it is enforced by construction, not timing).
func TestShardedGOMAXPROCSIndependent(t *testing.T) {
	reqs := taggedStream(t, repeatedProblems(t, 60, 5), 2.0, 11)
	outs := make([]*Outcome, 0, 2)
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		rt, err := RouterByName("rr")
		if err != nil {
			runtime.GOMAXPROCS(prev)
			t.Fatal(err)
		}
		f, err := New(Config{Devices: equivFleet(t), Router: rt, Seed: 3, Shards: 8})
		if err != nil {
			runtime.GOMAXPROCS(prev)
			t.Fatal(err)
		}
		out, err := f.Run(reqs)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	if !reflect.DeepEqual(outs[0], outs[1]) {
		t.Error("GOMAXPROCS=1 and GOMAXPROCS=8 sharded runs diverge")
	}
}

// TestNegativeShardsUsesCores checks the auto knob: Shards < 0 resolves
// to GOMAXPROCS-many shards and still matches the single-shard run.
func TestNegativeShardsUsesCores(t *testing.T) {
	reqs := taggedStream(t, repeatedProblems(t, 30, 4), 2.0, 17)
	mk := func() Config {
		rt, err := RouterByName("least-work")
		if err != nil {
			t.Fatal(err)
		}
		return Config{Devices: equivFleet(t), Router: rt, Seed: 3}
	}
	diffOutcomes(t, "auto-shards", runAt(t, mk, reqs, 1), runAt(t, mk, reqs, -1))
}

// TestShardedEquivalenceStreaming runs every shard count in
// streaming-metrics mode: the Outcome — including the accumulated sketch
// state — must be bit-identical to the single-shard run, and the
// materialized FleetStats must agree float-for-float.
func TestShardedEquivalenceStreaming(t *testing.T) {
	reqs := taggedStream(t, repeatedProblems(t, 60, 5), 2.0, 11)
	const slo = 30.0
	for _, router := range []string{"rr", "least-work", "prefix"} {
		mk := func() Config {
			rt, err := RouterByName(router)
			if err != nil {
				t.Fatal(err)
			}
			return Config{
				Devices: equivFleet(t), Router: rt, Seed: 3,
				Metrics: metrics.ModeStreaming, SLOLatency: slo,
			}
		}
		ref := runAt(t, mk, reqs, 1)
		for _, shards := range equivShards {
			label := router + "/streaming/shards=" + strconv.Itoa(shards)
			got := runAt(t, mk, reqs, shards)
			diffOutcomes(t, label, ref, got)
			if ref.Serve == nil || got.Serve == nil {
				t.Fatalf("%s: streaming run did not carry a ServeAccum", label)
			}
			if ref.Serve.Stats() != got.Serve.Stats() {
				t.Errorf("%s: streaming stats diverge:\n  ref: %+v\n  got: %+v",
					label, ref.Serve.Stats(), got.Serve.Stats())
			}
			if !reflect.DeepEqual(ref.Stats(slo), got.Stats(slo)) {
				t.Errorf("%s: fleet stats diverge", label)
			}
		}
	}
}

// TestStreamingStatsNearExact compares a streaming run's fleet stats to
// the same run in exact mode: counters and maxima identical, latency
// distribution within the sketch's documented error.
func TestStreamingStatsNearExact(t *testing.T) {
	reqs := taggedStream(t, repeatedProblems(t, 80, 5), 2.0, 13)
	const slo = 30.0
	run := func(mode metrics.Mode) metrics.FleetStats {
		rt, err := RouterByName("least-work")
		if err != nil {
			t.Fatal(err)
		}
		f, err := New(Config{Devices: equivFleet(t), Router: rt, Seed: 3, Metrics: mode, SLOLatency: slo})
		if err != nil {
			t.Fatal(err)
		}
		out, err := f.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return out.Stats(slo)
	}
	exact := run(metrics.ModeExact)
	stream := run(metrics.ModeStreaming)
	if stream.Served != exact.Served || stream.Rejected != exact.Rejected ||
		stream.Makespan != exact.Makespan || stream.Goodput != exact.Goodput ||
		stream.SLOAttainment != exact.SLOAttainment {
		t.Errorf("exact-agreement fields diverge:\n  stream: %+v\n  exact: %+v", stream, exact)
	}
	for _, c := range []struct {
		label         string
		stream, exact float64
	}{
		{"p50", stream.P50Latency, exact.P50Latency},
		{"p95", stream.P95Latency, exact.P95Latency},
		{"p99", stream.P99Latency, exact.P99Latency},
		{"mean latency", stream.MeanLatency, exact.MeanLatency},
	} {
		if c.exact == 0 {
			continue
		}
		if rel := math.Abs(c.stream-c.exact) / c.exact; rel > metrics.SketchRelErr {
			t.Errorf("%s: streaming %v vs exact %v, relative error %v > %v",
				c.label, c.stream, c.exact, rel, metrics.SketchRelErr)
		}
	}
}

// TestShardedEquivalenceKVPlane enables the KV memory plane at a tight
// capacity — admission, LRU eviction, and re-prefill penalties all fire
// — and compares shard counts for the plane-sensitive routers. The
// cache-aware router probes device planes inside Route, so every
// arrival is a cross-shard barrier; the outcomes must still match the
// single-shard run bit for bit.
func TestShardedEquivalenceKVPlane(t *testing.T) {
	reqs := taggedStream(t, repeatedProblems(t, 60, 5), 2.0, 11)
	for _, router := range []string{"cache-aware", "prefix", "least-work", "rr"} {
		mk := func() Config {
			rt, err := RouterByName(router)
			if err != nil {
				t.Fatal(err)
			}
			return Config{Devices: planeFleet(t, 16<<20), Router: rt, Seed: 3}
		}
		ref := runAt(t, mk, reqs, 1)
		for _, shards := range equivShards {
			diffOutcomes(t, router+"+kvplane/shards="+strconv.Itoa(shards), ref, runAt(t, mk, reqs, shards))
		}
	}
}

// barrierOnly hides a view-oblivious router's RouteViewOblivious, so the
// fleet routes its arrivals one event barrier at a time instead of
// pre-routing whole spans.
type barrierOnly struct{ Router }

// TestSpanMatchesBarrier serves the same stream through the span fast
// path and through the per-arrival barrier path, for rr and single, at
// one and three shards, on a fleet with a straggler and a fail-stop,
// with and without an elastic controller: the outcomes must be
// identical.
func TestSpanMatchesBarrier(t *testing.T) {
	if _, ok := Router(barrierOnly{&RoundRobin{}}).(ViewOblivious); ok {
		t.Fatal("barrierOnly must hide RouteViewOblivious")
	}
	reqs := taggedStream(t, repeatedProblems(t, 60, 5), 2.0, 11)
	warm := []Device{
		{Config: devConfig(t, hw.RTX4090, 4, 70)},
		{Config: devConfig(t, hw.RTX4070Ti, 4, 71)},
	}
	for _, name := range []string{"rr", "single"} {
		for _, elastic := range []bool{false, true} {
			mk := func(barrier bool) func() Config {
				return func() Config {
					rt, err := RouterByName(name)
					if err != nil {
						t.Fatal(err)
					}
					if barrier {
						rt = barrierOnly{rt}
					}
					cfg := Config{Devices: equivFleet(t), Router: rt, Seed: 3}
					if elastic {
						cfg.Control = &ControlConfig{
							Controller:  control.NewThreshold(),
							Interval:    2.5,
							Warm:        warm,
							WarmupDelay: 1.0,
							MaxTier:     2,
							SLOLatency:  30,
						}
					}
					return cfg
				}
			}
			for _, shards := range []int{1, 3} {
				label := name + "/elastic=" + strconv.FormatBool(elastic) + "/shards=" + strconv.Itoa(shards)
				diffOutcomes(t, label, runAt(t, mk(false), reqs, shards), runAt(t, mk(true), reqs, shards))
			}
		}
	}
}

// outOfRange is a faulty router: it picks one past the last device.
type outOfRange struct{ oblivious bool }

func (outOfRange) Name() string                                              { return "out-of-range" }
func (outOfRange) Route(_ RequestView, devs []DeviceView, _ *rng.Stream) int { return len(devs) }
func (o outOfRange) RouteViewOblivious() bool                                { return o.oblivious }

// badPick is a faulty serve policy: it picks one past the last runnable
// request, which fails the device's loop inside a step.
type badPick struct{ sched.FCFS }

func (badPick) Pick(rs []sched.ServeRequest, _ float64) int { return len(rs) }

// TestRunErrorPaths: a faulty router, on the span path and on the
// barrier path, and a faulty device policy each fail the run with an
// error and no outcome, at one shard and at three. The policy faults sit
// on devices 1 and 2, which land in different shards at three, so the
// merge chooses among faults from several workers.
func TestRunErrorPaths(t *testing.T) {
	reqs := taggedStream(t, repeatedProblems(t, 30, 5), 2.0, 11)
	faultyDevices := func() []Device {
		devs := equivFleet(t)
		devs[1].Policy = badPick{}
		devs[2].Policy = badPick{}
		return devs
	}
	cases := []struct {
		name   string
		router func() Router
		devs   func() []Device
		want   string
	}{
		{"router/barrier", func() Router { return outOfRange{} }, func() []Device { return equivFleet(t) }, "picked 4 of 4"},
		{"router/span", func() Router { return outOfRange{oblivious: true} }, func() []Device { return equivFleet(t) }, "picked 4 of 4"},
		{"policy/span", func() Router { return &RoundRobin{} }, faultyDevices, "picked index"},
		{"policy/barrier", func() Router { return LeastWork{} }, faultyDevices, "picked index"},
	}
	for _, c := range cases {
		for _, shards := range []int{1, 3} {
			label := c.name + "/shards=" + strconv.Itoa(shards)
			f, err := New(Config{Devices: c.devs(), Router: c.router(), Seed: 3, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			out, err := f.Run(reqs)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: Run error = %v, want one containing %q", label, err, c.want)
			}
			if out != nil {
				t.Errorf("%s: failed Run returned an outcome", label)
			}
		}
	}
}

package cluster

// Trace determinism: the span flight recorder extends the engine's
// bit-identity contract to observability. Every shard count must
// produce the single-shard run's merged span stream byte for byte —
// reflect.DeepEqual over []obs.Span, every float exact — for every
// router, strategy, fault schedule, and shard count, and attaching a
// recorder must not perturb the outcome it observes.

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"fasttts/internal/control"
	"fasttts/internal/core"
	"fasttts/internal/hw"
	"fasttts/internal/obs"
	"fasttts/internal/rng"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

// runTraced serves the stream with a fresh recorder attached and
// returns the outcome plus the canonically merged span stream.
func runTraced(t testing.TB, mk func() Config, reqs []core.Request, shards int) (*Outcome, []obs.Span) {
	t.Helper()
	cfg := mk()
	cfg.Obs = obs.NewRecorder()
	cfg.Shards = shards
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return out, cfg.Obs.Spans()
}

// diffSpans reports the first span divergence in a reviewable form.
func diffSpans(t *testing.T, label string, ref, got []obs.Span) {
	t.Helper()
	if reflect.DeepEqual(ref, got) {
		return
	}
	if len(ref) != len(got) {
		t.Errorf("%s: %d reference spans vs %d", label, len(ref), len(got))
		return
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Errorf("%s: span %d diverges:\n  ref: %+v\n  got: %+v", label, i, ref[i], got[i])
			return
		}
	}
}

// checkTrace runs the full span-stream validity suite on one trace.
func checkTrace(t *testing.T, label string, out *Outcome, spans []obs.Span) {
	t.Helper()
	if len(spans) == 0 {
		t.Errorf("%s: recorder captured nothing", label)
		return
	}
	if err := obs.Verify(spans); err != nil {
		t.Errorf("%s: lifecycle invariants violated: %v", label, err)
	}
	attrs := obs.Attribute(spans)
	if err := obs.CheckSums(attrs); err != nil {
		t.Errorf("%s: attribution components do not sum to wall: %v", label, err)
	}
	if out.Attribution == nil {
		t.Errorf("%s: traced outcome missing Attribution", label)
	} else if got := obs.Summarize(attrs); *out.Attribution != got {
		t.Errorf("%s: outcome attribution %+v != recomputed %+v", label, *out.Attribution, got)
	}
}

// TestTraceEngineEquivalence is the headline trace-determinism test:
// for every router, over a fleet with a straggler and a mid-run
// fail-stop, every shard count produces the single-shard span stream
// bit for bit — and the same outcome as an untraced run.
func TestTraceEngineEquivalence(t *testing.T) {
	reqs := taggedStream(t, repeatedProblems(t, 40, 5), 2.0, 11)
	for _, router := range RouterNames() {
		mk := func() Config {
			rt, err := RouterByName(router)
			if err != nil {
				t.Fatal(err)
			}
			return Config{Devices: equivFleet(t), Router: rt, Seed: 3}
		}
		plain, err := New(mk())
		if err != nil {
			t.Fatal(err)
		}
		untraced, err := plain.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		refOut, refSpans := runTraced(t, mk, reqs, 1)
		checkTrace(t, router+"/shards=1", refOut, refSpans)

		// Tracing must not perturb what it observes: the traced outcome
		// differs from the untraced one only by the attribution report.
		redacted := *refOut
		redacted.Attribution = nil
		if !reflect.DeepEqual(&redacted, untraced) {
			t.Errorf("%s: attaching a recorder perturbed the outcome", router)
		}

		for _, shards := range equivShards {
			label := router + "/shards=" + strconv.Itoa(shards)
			out, spans := runTraced(t, mk, reqs, shards)
			diffOutcomes(t, label, refOut, out)
			diffSpans(t, label, refSpans, spans)
		}
	}
}

// TestTraceHedgedEngineEquivalence adds cross-device hedging: twin
// placements, loser cancellations, and hedge-waste attribution must
// trace identically at every shard count.
func TestTraceHedgedEngineEquivalence(t *testing.T) {
	reqs := taggedStream(t, repeatedProblems(t, 40, 5), 3.0, 17)
	for _, router := range RouterNames() {
		mk := func() Config {
			rt, err := RouterByName(router)
			if err != nil {
				t.Fatal(err)
			}
			return Config{Devices: equivFleet(t), Router: rt, Seed: 3, Strategy: search.Hedged{}}
		}
		refOut, refSpans := runTraced(t, mk, reqs, 1)
		checkTrace(t, router+"/hedged/shards=1", refOut, refSpans)
		hedges := 0
		for _, s := range refSpans {
			if s.Kind == obs.KindHedge {
				hedges++
			}
		}
		if hedges == 0 {
			t.Errorf("%s: hedged run traced no hedge placements", router)
		}
		for _, shards := range equivShards {
			label := router + "/hedged/shards=" + strconv.Itoa(shards)
			out, spans := runTraced(t, mk, reqs, shards)
			diffOutcomes(t, label, refOut, out)
			diffSpans(t, label, refSpans, spans)
		}
	}
}

// TestTraceElasticEngineEquivalence adds the control plane: ticks,
// warm-pool joins, and drain decisions become control-track spans that
// must also trace identically.
func TestTraceElasticEngineEquivalence(t *testing.T) {
	reqs := taggedStream(t, repeatedProblems(t, 60, 5), 4.0, 13)
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
			label := router + "/" + ctlName
			refOut, refSpans := runTraced(t, mk, reqs, 1)
			checkTrace(t, label, refOut, refSpans)
			ticks := 0
			for _, s := range refSpans {
				if s.Kind == obs.KindTick {
					ticks++
				}
			}
			if ticks == 0 {
				t.Errorf("%s: elastic run traced no control ticks", label)
			}
			for _, shards := range equivShards {
				out, spans := runTraced(t, mk, reqs, shards)
				diffOutcomes(t, label+"/shards="+strconv.Itoa(shards), refOut, out)
				diffSpans(t, label+"/shards="+strconv.Itoa(shards), refSpans, spans)
			}
		}
	}
}

// traceCase is one randomized trace-determinism scenario: a fleetCase
// (random fleet, stragglers, fail-stops, stream, router) plus a random
// strategy pick and shard count.
type traceCase struct {
	Hedged hedgedCase
	Hedge  bool // attach the hedged strategy
	Shards int
}

func (traceCase) Generate(r *rand.Rand, size int) reflect.Value {
	hc := hedgedCase{}.Generate(r, size).Interface().(hedgedCase)
	return reflect.ValueOf(traceCase{Hedged: hc, Hedge: r.Intn(2) == 0, Shards: 2 + r.Intn(5)})
}

// TestTraceLifecycleProperty is the randomized conservation law for the
// flight recorder: across random router × strategy × fail-stop
// schedules, every span opened is closed exactly once, device slice
// intervals never overlap, attribution components sum to wall latency,
// and every shard count emits the single-shard stream bit for bit.
func TestTraceLifecycleProperty(t *testing.T) {
	gpus := []hw.GPU{hw.RTX4090, hw.RTX4070Ti, hw.RTX3070Ti}
	ds := workload.NewDataset(workload.MATH500, rng.New(7))
	prop := func(tc traceCase) bool {
		c := tc.Hedged.Fleet
		var devices []Device
		for i := range c.GPUs {
			devices = append(devices, Device{
				Config:   devConfig(t, gpus[c.GPUs[i]], 4, uint64(40+i)),
				Slowdown: c.Slowdowns[i],
				FailAt:   c.FailAts[i],
			})
		}
		if tc.Hedge && len(devices) < 2 {
			devices = append(devices, Device{Config: devConfig(t, gpus[tc.Hedged.Extra], 4, uint64(60))})
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
			cfg := Config{Devices: devices, Router: router, Seed: 3}
			if tc.Hedge {
				cfg.Strategy = search.Hedged{}
			}
			return cfg
		}
		refOut, refSpans := runTraced(t, mk, reqs, 1)
		if err := obs.Verify(refSpans); err != nil {
			t.Logf("case %+v: %v", tc, err)
			return false
		}
		if err := obs.CheckSums(obs.Attribute(refSpans)); err != nil {
			t.Logf("case %+v: %v", tc, err)
			return false
		}
		out, spans := runTraced(t, mk, reqs, tc.Shards)
		if !reflect.DeepEqual(refOut, out) {
			t.Logf("case %+v: outcomes diverge across shard counts", tc)
			return false
		}
		if !reflect.DeepEqual(refSpans, spans) {
			t.Logf("case %+v: %d single-shard spans vs %d, or payload divergence",
				tc, len(refSpans), len(spans))
			return false
		}
		return true
	}
	if err := quick.Check(prop, qc(t, 40)); err != nil {
		t.Error(err)
	}
}

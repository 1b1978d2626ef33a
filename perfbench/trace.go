package main

// The traced pass: extra runs of the workload under a raised-rate CPU
// profile, one with timing wrappers around the router, the serve
// policies and the controller, then alternating untraced and
// recorder-on runs, followed by a replay of the solver over the
// workload's distinct (device, problem) pairs. It yields the per-layer
// metrics; none of it feeds an end-to-end one.

import (
	"bytes"
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"time"

	"fasttts/internal/cluster"
	"fasttts/internal/control"
	"fasttts/internal/core"
	"fasttts/internal/metrics"
	"fasttts/internal/obs"
	"fasttts/internal/rng"
	"fasttts/internal/sched"
)

// profileHz is the traced pass's CPU sampling rate (the runtime default
// is 100 Hz).
const profileHz = 1000

// routerTap times Router.Route. It forwards WorkAware and ViewOblivious,
// which the fleet asserts on its router to pick the engine mode and the
// load signals it maintains, so the wrapped fleet behaves byte for byte
// like the unwrapped one.
type routerTap struct {
	inner cluster.Router
	calls int
	busy  time.Duration
}

func (t *routerTap) Name() string { return t.inner.Name() }

func (t *routerTap) Route(rq cluster.RequestView, devs []cluster.DeviceView, r *rng.Stream) int {
	t0 := time.Now()
	i := t.inner.Route(rq, devs, r)
	t.busy += time.Since(t0)
	t.calls++
	return i
}

func (t *routerTap) NeedsOutstandingWork() bool {
	wa, ok := t.inner.(cluster.WorkAware)
	return ok && wa.NeedsOutstandingWork()
}

func (t *routerTap) RouteViewOblivious() bool {
	vo, ok := t.inner.(cluster.ViewOblivious)
	return ok && vo.RouteViewOblivious()
}

// policyTap times one device's serve policy.
type policyTap struct {
	inner         sched.ServePolicy
	admits, picks int
	busy          time.Duration
}

func (t *policyTap) Name() string { return t.inner.Name() }

func (t *policyTap) Admit(r sched.ServeRequest, now float64, inFlight int) bool {
	t0 := time.Now()
	ok := t.inner.Admit(r, now, inFlight)
	t.busy += time.Since(t0)
	t.admits++
	return ok
}

func (t *policyTap) Pick(rs []sched.ServeRequest, now float64) int {
	t0 := time.Now()
	i := t.inner.Pick(rs, now)
	t.busy += time.Since(t0)
	t.picks++
	return i
}

// controlTap times Controller.Decide.
type controlTap struct {
	inner control.Controller
	calls int
	busy  time.Duration
}

func (t *controlTap) Name() string { return t.inner.Name() }

func (t *controlTap) Decide(sig control.Signals, r *rng.Stream) []control.Action {
	t0 := time.Now()
	acts := t.inner.Decide(sig, r)
	t.busy += time.Since(t0)
	t.calls++
	return acts
}

// taps collects the wrappers one traced run injected.
type taps struct {
	router   []*routerTap
	policies []*policyTap
	control  []*controlTap
}

func (tp *taps) hooks() hooks {
	return hooks{
		router: func(r cluster.Router) cluster.Router {
			t := &routerTap{inner: r}
			tp.router = append(tp.router, t)
			return t
		},
		policy: func(p sched.ServePolicy) sched.ServePolicy {
			if p == nil {
				p = sched.FCFS{}
			}
			t := &policyTap{inner: p}
			tp.policies = append(tp.policies, t)
			return t
		},
		control: func(c control.Controller) control.Controller {
			t := &controlTap{inner: c}
			tp.control = append(tp.control, t)
			return t
		},
	}
}

// gcCPU reads the runtime's cumulative GC and total CPU-seconds.
func gcCPU() (gc, total float64) {
	samples := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(samples)
	return samples[0].Value.Float64(), samples[1].Value.Float64()
}

// spanBudget caps the spans one recorder run may hold (≈72 bytes each).
// View-reading routers emit a candidate span per routable device per
// routing decision, so a large fleet traces only a prefix of its stream.
const spanBudget = 2_000_000

// tracedPass returns the per-layer metrics from runs beyond the timed
// ones: profiled runs with the layer wrappers injected, whose outcomes
// must match the reference digest (so the wrappers provably do not
// perturb the fleet), then the recorder runs and the solver replay. A
// check that fails counts the run's requests as failed.
func (s *session) tracedPass(facts map[string]any) (map[string]metric, error) {
	ms := map[string]metric{}
	put := func(name string, v float64, unit string) { ms[name] = metric{v, unit} }
	out, err := s.profiledRun(put, facts)
	if err != nil {
		return nil, err
	}
	s.outcomeLayers(out, put)
	put("metrics.summarize_s", s.timeStats(out), "s")
	if err := s.recordedRun(put, facts); err != nil {
		return nil, err
	}
	if err := s.replaySolver(put); err != nil {
		return nil, err
	}
	return ms, nil
}

// The kernel delivers a few hundred profile samples per second whatever
// the requested rate, so a short workload repeats its profiled run until
// the runs cover minProfiled of Fleet.Run wall time (or maxProfiledRuns
// runs), and the shares rest on enough samples.
const (
	minProfiled     = 2 * time.Second
	maxProfiledRuns = 8
)

// profiledRun serves the stream with the wrappers injected under the
// CPU profiler, repeated as minProfiled asks, and reports the per-run
// wrapper counters and the profile's per-layer CPU shares. Every run's
// outcome must match the reference digest.
func (s *session) profiledRun(put func(string, float64, string), facts map[string]any) (*cluster.Outcome, error) {
	var tp taps
	var fold profileFold
	var wall time.Duration
	var gcShares []float64
	var out *cluster.Outcome
	n := len(s.inst.reqs)
	runs := 0
	for ; runs == 0 || (wall < minProfiled && runs < maxProfiledRuns); runs++ {
		cfg, err := s.inst.config(tp.hooks())
		if err != nil {
			return nil, err
		}
		p, err := profile(cfg, s.inst.reqs)
		if err != nil {
			return nil, err
		}
		s.attempted += n
		if err := checkOutcome(s.inst.reqs, p.out); err != nil {
			s.fail(n, err)
		} else if d := digest(p.out); d != s.ref {
			s.fail(n, fmt.Errorf("wrapped digest %s differs from the unwrapped %s: the wrappers perturbed the run", d, s.ref))
		}
		fold.add(p.fold)
		wall += p.wall
		gcShares = append(gcShares, p.gcShare)
		out = p.out
	}

	for _, layer := range profileLayers {
		if layer != "obs" {
			put(layer+".cpu_share", fold.share(layer), "ratio")
		}
	}
	put("profile.samples", float64(fold.total), "count")
	put("runtime.gc_cpu_share", median(gcShares), "ratio")
	facts["profile_hz"] = profileHz
	facts["profile_samples"] = fold.total
	facts["profiled_runs"] = runs

	// Every run's wrappers count alike (the runs are identical), so the
	// per-run figures are the sums divided by the number of runs.
	var routes, decides, admits, picks int
	var routeBusy, controlBusy, schedBusy time.Duration
	for _, t := range tp.router {
		routes += t.calls
		routeBusy += t.busy
	}
	for _, t := range tp.control {
		decides += t.calls
		controlBusy += t.busy
	}
	for _, t := range tp.policies {
		admits += t.admits
		picks += t.picks
		schedBusy += t.busy
	}
	r := float64(runs)
	put("cluster.route.calls", float64(routes)/r, "count")
	put("cluster.route.busy_s", routeBusy.Seconds()/r, "s")
	put("control.decide.calls", float64(decides)/r, "count")
	put("control.busy_s", controlBusy.Seconds()/r, "s")
	put("sched.admit.calls", float64(admits)/r, "count")
	put("sched.pick.calls", float64(picks)/r, "count")
	put("sched.busy_s", schedBusy.Seconds()/r, "s")
	return out, nil
}

// recordedRun measures the span recorder on the stream, or on its
// prefix that fits spanBudget. It alternates untraced and recorder-on
// runs, twice each, so host-speed drift hits both sides alike; the
// recorder-on runs are profiled for the recorder's CPU share. Every
// recorder-on outcome must match the untraced digest, and its trace
// must verify with exact attribution. It reports the recorder's
// counters, CPU share and overhead, and the latency attribution.
func (s *session) recordedRun(put func(string, float64, string), facts map[string]any) error {
	probe, err := s.inst.config(hooks{})
	if err != nil {
		return err
	}
	reqs := s.inst.reqs[:tracedPrefix(probe, len(s.inst.reqs))]
	var off, on []float64
	var fold profileFold
	var last profiled
	var rec *obs.Recorder
	ref := ""
	for i := 0; i < 2; i++ {
		cfg, err := s.inst.config(hooks{})
		if err != nil {
			return err
		}
		fleet, err := cluster.New(cfg)
		if err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		out, err := fleet.Run(reqs)
		off = append(off, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		if d := digest(out); ref == "" {
			ref = d
		} else if d != ref {
			return fmt.Errorf("untraced runs of the traced requests disagree: digests %s and %s", ref, d)
		}

		// Routers and controllers carry run state: fresh config.
		if cfg, err = s.inst.config(hooks{}); err != nil {
			return err
		}
		rec = obs.NewRecorder()
		cfg.Obs = rec
		if last, err = profile(cfg, reqs); err != nil {
			return err
		}
		on = append(on, last.wall.Seconds())
		fold.add(last.fold)
		s.attempted += len(reqs)
		if err := checkRecorded(reqs, last.out, rec, ref); err != nil {
			s.fail(len(reqs), err)
		}
	}
	facts["traced_requests"] = len(reqs)
	put("obs.traced_requests", float64(len(reqs)), "count")
	put("obs.spans", float64(rec.SpanCount()), "count")
	put("obs.cpu_share", fold.share("obs"), "ratio")
	put("obs.overhead_ratio", ratio(median(on), median(off)), "ratio")
	put("obs.untraced_wall_s", median(off), "s")

	var at metrics.AttributionStats
	if last.out.Attribution != nil {
		at = *last.out.Attribution
	}
	fa := float64(at.Requests)
	put("attr.requests", fa, "count")
	put("attr.queue_s", ratio(at.Queue, fa), "sim_s")
	put("attr.service_s", ratio(at.Service, fa), "sim_s")
	put("attr.reprefill_s", ratio(at.Reprefill, fa), "sim_s")
	put("attr.straggler_s", ratio(at.Straggler, fa), "sim_s")
	put("attr.preemption_s", ratio(at.Preemption, fa), "sim_s")
	put("attr.hedge_waste_s", ratio(at.HedgeWaste, fa), "sim_s")
	put("attr.lost_work_s", ratio(at.LostWork, fa), "sim_s")
	return nil
}

// tracedPrefix is how many requests of an n-request stream the recorder
// run can trace within spanBudget: a view-reading router adds one
// candidate span per device per routing decision (two decisions per
// request when hedging), on top of a lifecycle allowance per request.
func tracedPrefix(cfg cluster.Config, n int) int {
	perReq := 32
	if vo, ok := cfg.Router.(cluster.ViewOblivious); !ok || !vo.RouteViewOblivious() {
		devices := len(cfg.Devices)
		if cfg.Control != nil {
			devices += len(cfg.Control.Warm)
		}
		if cfg.Strategy != nil && cfg.Strategy.Hedged() {
			devices *= 2
		}
		perReq += devices
	}
	return min(n, max(1, spanBudget/perReq))
}

// profiled is one run under the CPU profiler: its outcome, the profile
// folded by layer, the wall time of Fleet.Run and the share of the
// run's CPU time the runtime spent in garbage collection.
type profiled struct {
	out     *cluster.Outcome
	fold    profileFold
	wall    time.Duration
	gcShare float64
}

// profile serves reqs on a fleet built from cfg under the CPU profiler.
func profile(cfg cluster.Config, reqs []core.Request) (profiled, error) {
	fleet, err := cluster.New(cfg)
	if err != nil {
		return profiled{}, err
	}
	runtime.GC()
	gc0, cpu0 := gcCPU()
	var buf bytes.Buffer
	// Setting the rate first raises it above pprof's 100 Hz default;
	// StartCPUProfile then reports that the rate is already set.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return profiled{}, err
	}
	t0 := time.Now()
	out, err := fleet.Run(reqs)
	wall := time.Since(t0)
	pprof.StopCPUProfile()
	if err != nil {
		return profiled{}, err
	}
	// The runtime folds GC CPU time into its counters at each cycle's end.
	runtime.GC()
	gc1, cpu1 := gcCPU()
	fold, err := foldProfile(buf.Bytes())
	if err != nil {
		return profiled{}, fmt.Errorf("reading the CPU profile: %w", err)
	}
	return profiled{out: out, fold: fold, wall: wall, gcShare: ratio(gc1-gc0, cpu1-cpu0)}, nil
}

// checkRecorded applies the output check to a recorder-on outcome and
// the tracing-specific ones: the untraced digest, valid spans, exact
// attribution.
func checkRecorded(reqs []core.Request, out *cluster.Outcome, rec *obs.Recorder, ref string) error {
	if err := checkOutcome(reqs, out); err != nil {
		return err
	}
	if d := digest(out); d != ref {
		return fmt.Errorf("traced digest %s differs from the untraced %s: tracing perturbed the run", d, ref)
	}
	spans := rec.Spans()
	if err := obs.Verify(spans); err != nil {
		return err
	}
	return obs.CheckSums(obs.Attribute(spans))
}

// outcomeLayers derives the per-layer counters the outcome and its fleet
// statistics carry.
func (s *session) outcomeLayers(out *cluster.Outcome, put func(string, float64, string)) {
	st := out.Stats(s.inst.slo)
	n := len(s.inst.reqs)
	put("outcome.requests", float64(n), "count")
	put("sched.shed_ratio", ratio(float64(st.Rejected), float64(n)), "ratio")
	put("cluster.requeues", float64(st.Requeues), "count")
	put("cluster.failed_devices", float64(st.FailedDevices), "count")
	put("cluster.imbalance_cv", st.ImbalanceCV, "ratio")
	put("cluster.prefix_hit_rate", st.PrefixHitRate, "ratio")
	put("cluster.prefix_base_tokens", float64(out.PrefixHits+out.PrefixMisses), "tokens")
	put("memplane.hit_rate", st.CacheHitRate, "ratio")
	put("memplane.hit_base_tokens", float64(st.CacheHitTokens+st.CacheMissTokens), "tokens")
	put("memplane.evicted_tokens", float64(st.CacheEvictedTokens), "tokens")
	put("memplane.reprefill_s", st.ReprefillSeconds, "sim_s")
	put("control.device_s", st.DeviceSeconds, "sim_s")
	var ticks, ups, downs int
	if st.Control != nil {
		ticks, ups, downs = st.Control.Ticks, st.Control.ScaleUps, st.Control.ScaleDowns
	}
	put("control.ticks", float64(ticks), "count")
	put("control.scale_ups", float64(ups), "count")
	put("control.scale_downs", float64(downs), "count")

	var served, slices int
	var gen, ver, xfer float64
	var spec, kept, recomputed int64
	for _, r := range out.Results {
		if r.Rejected || r.Result == nil {
			continue
		}
		served++
		slices += r.Slices
		gen += r.GenTime
		ver += r.VerTime
		xfer += r.TransferTime
		spec += r.SpecTokens
		kept += r.SpecRetained
		recomputed += r.RecomputedTokens
	}
	fs := float64(served)
	put("core.served", fs, "count")
	put("core.slices_per_req", ratio(float64(slices), fs), "count")
	put("core.gen_s", ratio(gen, fs), "sim_s")
	put("core.ver_s", ratio(ver, fs), "sim_s")
	put("core.transfer_s", ratio(xfer, fs), "sim_s")
	put("core.spec_retain_ratio", ratio(float64(kept), float64(spec)), "ratio")
	put("core.spec_tokens", float64(spec), "tokens")
	put("core.recomputed_tokens_per_req", ratio(float64(recomputed), fs), "tokens")
}

// timeStats times Outcome.Stats, the metrics layer's summary, as the
// median of five calls.
func (s *session) timeStats(out *cluster.Outcome) float64 {
	var ts []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		_ = out.Stats(s.inst.slo)
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts)
}

// replaySolver solves every distinct (device model, problem) pair of the
// workload once on a fresh core.Runner and reports the time and heap
// allocations per Solve call.
func (s *session) replaySolver(put func(string, float64, string)) error {
	probs := distinctProblems(s.inst.reqs)
	var calls int
	var busy time.Duration
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, cfg := range distinctConfigs(s.inst.devices) {
		runner, err := core.NewRunner(cfg)
		if err != nil {
			return err
		}
		for _, p := range probs {
			t0 := time.Now()
			if _, err := runner.Solve(p); err != nil {
				return fmt.Errorf("replaying %s problem %d on %s: %w", p.Dataset, p.Index, cfg.GPU.Name, err)
			}
			busy += time.Since(t0)
			calls++
		}
	}
	runtime.ReadMemStats(&m1)
	fc := float64(calls)
	put("core.solve.calls", fc, "count")
	put("core.solve.ns_per_call", ratio(float64(busy.Nanoseconds()), fc), "ns")
	put("core.solve.allocs_per_call", ratio(float64(m1.Mallocs-m0.Mallocs), fc), "count")
	return nil
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

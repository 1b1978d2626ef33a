package main

// The four benchmark workloads. Each build function turns the benchmark seed
// into a request stream and a fleet configuration; the simulator sees
// only the generated []core.Request and the devices. LAYERS.md records
// why each workload exists and which layers it stresses or bypasses.

import (
	"fmt"
	"math"

	"fasttts/internal/cluster"
	"fasttts/internal/control"
	"fasttts/internal/core"
	"fasttts/internal/hw"
	"fasttts/internal/memplane"
	"fasttts/internal/metrics"
	"fasttts/internal/model"
	"fasttts/internal/rng"
	"fasttts/internal/sched"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

// hooks are the wrappers the traced pass injects around the layers it
// times. The zero value injects nothing.
type hooks struct {
	router  func(cluster.Router) cluster.Router
	policy  func(sched.ServePolicy) sched.ServePolicy
	control func(control.Controller) control.Controller
}

func (h hooks) wrapRouter(r cluster.Router) cluster.Router {
	if h.router == nil {
		return r
	}
	return h.router(r)
}

func (h hooks) wrapPolicy(p sched.ServePolicy) sched.ServePolicy {
	if h.policy == nil {
		return p
	}
	return h.policy(p)
}

func (h hooks) wrapControl(c control.Controller) control.Controller {
	if h.control == nil {
		return c
	}
	return h.control(c)
}

// instance is one built workload: the request stream plus a factory for
// fresh fleet configurations (routers, policies and controllers carry
// per-run state, so every run gets its own).
type instance struct {
	reqs []core.Request
	// slo is the wall-latency target sim_slo_attain counts against.
	slo float64
	// devices are the founding device deployments, for the solver replay.
	devices []cluster.Device
	config  func(h hooks) (cluster.Config, error)
}

// workloadDef names a workload and its build function. scale shrinks the
// stream (and the fleet, where the fleet size is the point) for tests;
// the benchmark always runs at scale 1.
type workloadDef struct {
	name  string
	build func(seed uint64, scale float64) (*instance, error)
}

var workloads = []workloadDef{
	{"fleet-dispatch", buildFleetDispatch},
	{"edge-tts", buildEdgeTTS},
	{"kv-reuse", buildKVReuse},
	{"elastic-hedge", buildElasticHedge},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// scaled is n·scale rounded, floored at lo.
func scaled(n int, scale float64, lo int) int {
	return max(lo, int(math.Round(float64(n)*scale)))
}

// tinySpec is the synthetic dataset of the fleet-scale workloads: very
// short prompts and at most two short chain-of-thought steps, so the
// per-request solver cost is small and the fleet event core dominates.
var tinySpec = workload.DatasetSpec{
	Name: "TINY", Problems: 64,
	DiffLo: 0.30, DiffHi: 0.70,
	StepLogMu: 2.3, StepLogSigma: 0.4, MinStepTokens: 4,
	MaxSteps: 2, TypicalSteps: 1.3,
	PromptLo: 8, PromptHi: 16,
	AnswerSpace: 10, QualityDriftScale: 1.0,
}

// tinyDevices builds n homogeneous RTX 4090s serving tinySpec requests
// with chain-of-thought search in baseline mode, FCFS behind an
// admission limit of 32 in-flight requests. Device i's engine seed is
// fixedSeed+first+i.
func tinyDevices(n, first int) ([]cluster.Device, error) {
	pol, err := search.New(search.SingleCoT, 1, 1)
	if err != nil {
		return nil, err
	}
	devs := make([]cluster.Device, n)
	for i := range devs {
		devs[i] = cluster.Device{
			Config: core.Config{
				GPU:       hw.RTX4090,
				Generator: model.Qwen25Math1_5B,
				Verifier:  model.Qwen25Math1_5B,
				Policy:    pol,
				Opts:      core.BaselineOptions(),
				Seed:      fixedSeed + uint64(first+i),
			},
			Policy: sched.AdmissionLimit{Inner: sched.FCFS{}, MaxInFlight: 32},
		}
	}
	return devs, nil
}

// fixedSeed pins every workload's problems and device engines. Like a
// published benchmark served by deployed models, the problem set and
// the engines' sampling are fixed; the benchmark seed varies the
// traffic: arrival times and the order problems are asked in.
const fixedSeed = 2026

// stratified picks a problem for each of n requests: request i asks
// set i mod len(sets), and each set is walked in a fresh shuffled order
// per pass, so every problem is asked about equally often.
func stratified(n int, sets [][]*workload.Problem, r *rng.Stream) []*workload.Problem {
	orders := make([][]int, len(sets))
	pos := make([]int, len(sets))
	out := make([]*workload.Problem, n)
	for i := range out {
		k := i % len(sets)
		if pos[k] == len(orders[k]) {
			orders[k], pos[k] = r.Perm(len(sets[k])), 0
		}
		out[i] = sets[k][orders[k][pos[k]]]
		pos[k]++
	}
	return out
}

// requests pairs arrivals with problems, tagged by stream index.
func requests(arrivals []float64, probs []*workload.Problem) []core.Request {
	reqs := make([]core.Request, len(arrivals))
	for i, at := range arrivals {
		reqs[i] = core.Request{Problem: probs[i], Arrival: at, Tag: i}
	}
	return reqs
}

// tinyStream asks one tinySpec problem per arrival.
func tinyStream(arrivals []float64, root *rng.Stream) []core.Request {
	ds := workload.NewDataset(tinySpec, rng.New(fixedSeed))
	return requests(arrivals, stratified(len(arrivals), [][]*workload.Problem{ds.Problems}, root.Child("mix")))
}

// fleetDispatchRate is the per-device Poisson arrival rate of
// fleet-dispatch: about 90% of what a device serves (a tiny request
// takes ≈0.075 s), so queues stay stationary over the stream. At 20 req/s
// the backlog grows until admission control sheds.
const fleetDispatchRate = 12.0

func buildFleetDispatch(seed uint64, scale float64) (*instance, error) {
	n := scaled(1024, scale, 4)
	root := rng.New(seed).Child("fleet-dispatch")
	arrivals := workload.PoissonArrivals(scaled(100_000, scale, 200), fleetDispatchRate*float64(n), root.Child("arrivals"))
	devs, err := tinyDevices(n, 0)
	if err != nil {
		return nil, err
	}
	const slo = 0.2
	return &instance{
		reqs:    tinyStream(arrivals, root),
		slo:     slo,
		devices: devs,
		config: func(h hooks) (cluster.Config, error) {
			return cluster.Config{
				Devices:    wrapDevices(devs, h),
				Router:     h.wrapRouter(cluster.LeastWork{}),
				Seed:       seed,
				Metrics:    metrics.ModeStreaming,
				SLOLatency: slo,
			}, nil
		},
	}, nil
}

// edgeConfig is the paper's deployment on one GPU: the 1.5B+1.5B pair
// in FastTTS mode (speculative beam extension, prefix-aware scheduling,
// asymmetric memory) running beam search at width beams, branch factor
// 4. The 4090 is restricted to 40% of its memory as in the paper's
// memory-constrained setting; smaller cards use 90%.
func edgeConfig(gpu hw.GPU, beams int, seed uint64) (core.Config, error) {
	pol, err := search.New(search.BeamSearch, beams, 4)
	if err != nil {
		return core.Config{}, err
	}
	frac := 0.9
	if gpu.Name == hw.RTX4090.Name {
		frac = 0.4
	}
	return core.Config{
		GPU:            gpu,
		Generator:      model.Qwen25Math1_5B,
		GenSkill:       workload.SkillQwen1_5B,
		Verifier:       model.SkyworkPRM1_5B,
		VerSkill:       workload.SkillSkywork1_5B,
		MemoryFraction: frac,
		Policy:         pol,
		Opts:           core.FastTTSOptions(),
		Seed:           seed,
	}, nil
}

// edgeFleet is the 3-GPU edge fleet: RTX 4090, RTX 4070 Ti, RTX 3070 Ti.
func edgeFleet(beams int) ([]cluster.Device, error) {
	gpus := []hw.GPU{hw.RTX4090, hw.RTX4070Ti, hw.RTX3070Ti}
	devs := make([]cluster.Device, len(gpus))
	for i, g := range gpus {
		cfg, err := edgeConfig(g, beams, fixedSeed+uint64(i))
		if err != nil {
			return nil, err
		}
		devs[i] = cluster.Device{Config: cfg, Policy: sched.FCFS{}}
	}
	return devs, nil
}

// problemSets materializes the first pool problems (all if pool is 0)
// of each named benchmark dataset.
func problemSets(pool int, names ...string) ([][]*workload.Problem, error) {
	out := make([][]*workload.Problem, len(names))
	for i, name := range names {
		spec, err := workload.SpecByName(name)
		if err != nil {
			return nil, err
		}
		probs := workload.NewDataset(spec, rng.New(fixedSeed).Child(name)).Problems
		if pool > 0 {
			probs = probs[:pool]
		}
		out[i] = probs
	}
	return out, nil
}

// edgeTTSRate is the Poisson arrival rate of edge-tts: about half the
// 3-GPU fleet's capacity at width 64 (≈24 s of service per request),
// which keeps the heavy-tailed AIME service from building a backlog.
const edgeTTSRate = 0.06

func buildEdgeTTS(seed uint64, scale float64) (*instance, error) {
	root := rng.New(seed).Child("edge-tts")
	sets, err := problemSets(0, "AIME24", "AMC23", "MATH500")
	if err != nil {
		return nil, err
	}
	arrivals := workload.PoissonArrivals(scaled(1200, scale, 12), edgeTTSRate, root.Child("arrivals"))
	reqs := requests(arrivals, stratified(len(arrivals), sets, root.Child("mix")))
	devs, err := edgeFleet(64)
	if err != nil {
		return nil, err
	}
	const slo = 60
	return &instance{
		reqs:    reqs,
		slo:     slo,
		devices: devs,
		config: func(h hooks) (cluster.Config, error) {
			return cluster.Config{
				Devices:    wrapDevices(devs, h),
				Router:     h.wrapRouter(cluster.LeastWork{}),
				Seed:       seed,
				SLOLatency: slo,
			}, nil
		},
	}, nil
}

// kvReuseRate is kv-reuse's Poisson arrival rate. The cache-thrash
// catalog scenario's 0.3 req/s builds an unbounded backlog over a long
// stream; this rate keeps the queue stationary.
const kvReuseRate = 0.07

func buildKVReuse(seed uint64, scale float64) (*instance, error) {
	return buildKVReuseAt(seed, scale, kvReuseRate)
}

// buildKVReuseAt is the cache-thrash shape at a chosen arrival rate: a
// hot set of 72 few-shot prompts (the first 24 problems of each few-shot
// dataset, 3,000–4,800 prompt tokens, ≈110 MiB of KV each) asked with
// Zipf(1) popularity against 512 MiB KV planes on the edge fleet at
// width 8, routed cache-aware, with the 4070 Ti ordering by shortest
// job. The hottest prompts stay resident and hit; the tail evicts and
// re-prefills.
func buildKVReuseAt(seed uint64, scale, rate float64) (*instance, error) {
	root := rng.New(seed).Child("kv-reuse")
	sets, err := problemSets(24, "MATH500-fewshot", "AMC23-fewshot", "AIME24-fewshot")
	if err != nil {
		return nil, err
	}
	var hot []*workload.Problem // popularity rank order: problem k of each set, then k+1
	for k := range sets[0] {
		for _, set := range sets {
			hot = append(hot, set[k])
		}
	}
	arrivals := workload.PoissonArrivals(scaled(2400, scale, 12), rate, root.Child("arrivals"))
	mix := root.Child("mix")
	probs := make([]*workload.Problem, len(arrivals))
	for i := range probs {
		probs[i] = hot[mix.Zipf(len(hot), 1)]
	}
	reqs := requests(arrivals, probs)
	devs, err := edgeFleet(8)
	if err != nil {
		return nil, err
	}
	for i := range devs {
		devs[i].Config.KVPlane = memplane.Config{CapacityBytes: 512 << 20}
	}
	devs[1].Policy = sched.SJF{}
	const slo = 45
	return &instance{
		reqs:    reqs,
		slo:     slo,
		devices: devs,
		config: func(h hooks) (cluster.Config, error) {
			return cluster.Config{
				Devices:    wrapDevices(devs, h),
				Router:     h.wrapRouter(cluster.CacheAware{}),
				Seed:       seed,
				SLOLatency: slo,
			}, nil
		},
	}, nil
}

// Elastic-hedge shape: 64 founding tiny-request devices, a 16-device warm
// pool, sinusoidal arrivals swinging between 0 and twice the base rate
// over 12 periods (enough peaks that the latency tail is steady across
// seeds).
const (
	hedgeFounding = 64
	hedgeWarm     = 16
	hedgeRate     = 3.0 // per founding device, req/s
)

func buildElasticHedge(seed uint64, scale float64) (*instance, error) {
	n := scaled(hedgeFounding, scale, 4)
	warmN := scaled(hedgeWarm, scale, 2)
	reqs := scaled(40_000, scale, 200)
	root := rng.New(seed).Child("elastic-hedge")
	base := hedgeRate * float64(n)
	span := float64(reqs) / base
	period := span / 12
	arrivals := workload.SinusoidalArrivals(reqs, base, 1, period, root.Child("arrivals"))
	devs, err := tinyDevices(n, 0)
	if err != nil {
		return nil, err
	}
	devs[1].Slowdown = 4
	devs[2].FailAt = span / 3
	devs[3].FailAt = 2 * span / 3
	warm, err := tinyDevices(warmN, n)
	if err != nil {
		return nil, err
	}
	strat, err := search.ParseStrategy("hedged")
	if err != nil {
		return nil, err
	}
	const slo = 0.2
	interval := period / 16
	return &instance{
		reqs:    tinyStream(arrivals, root),
		slo:     slo,
		devices: devs,
		config: func(h hooks) (cluster.Config, error) {
			ctl := &control.Threshold{HighDelay: slo / 4, HighUtil: 0.9, LowUtil: 0.35, Cooldown: 2}
			return cluster.Config{
				Devices:    wrapDevices(devs, h),
				Router:     h.wrapRouter(&cluster.RoundRobin{}),
				Seed:       seed,
				SLOLatency: slo,
				Strategy:   strat,
				Control: &cluster.ControlConfig{
					Controller:  h.wrapControl(ctl),
					Interval:    interval,
					Warm:        wrapDevices(warm, h),
					WarmupDelay: interval / 2,
					SLOLatency:  slo,
				},
			}, nil
		},
	}, nil
}

// wrapDevices copies devs with each serve policy passed through the
// policy hook (one wrapper per device, so counters are never shared
// across shard workers).
func wrapDevices(devs []cluster.Device, h hooks) []cluster.Device {
	out := make([]cluster.Device, len(devs))
	for i, d := range devs {
		d.Policy = h.wrapPolicy(d.Policy)
		out[i] = d
	}
	return out
}

// distinctProblems lists the distinct problems of a stream in first-use
// order, for the solver replay.
func distinctProblems(reqs []core.Request) []*workload.Problem {
	seen := make(map[*workload.Problem]bool)
	var out []*workload.Problem
	for _, rq := range reqs {
		if !seen[rq.Problem] {
			seen[rq.Problem] = true
			out = append(out, rq.Problem)
		}
	}
	return out
}

// distinctConfigs lists one device deployment per GPU model, in fleet
// order: devices of one model differ only in their seed.
func distinctConfigs(devs []cluster.Device) []core.Config {
	seen := make(map[string]bool)
	var out []core.Config
	for _, d := range devs {
		if !seen[d.Config.GPU.Name] {
			seen[d.Config.GPU.Name] = true
			out = append(out, d.Config)
		}
	}
	return out
}

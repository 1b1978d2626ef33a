package fasttts

import (
	"fmt"
	"math"

	"fasttts/internal/cluster"
	"fasttts/internal/control"
	"fasttts/internal/core"
	"fasttts/internal/metrics"
	"fasttts/internal/sched"
	"fasttts/internal/search"
)

// DeviceSpec describes one member (or a homogeneous group of members) of
// a heterogeneous edge fleet: a full deployment Config (GPU, model pair,
// search algorithm, seed) plus the device's serving policy and
// fault-injection knobs.
type DeviceSpec struct {
	Config
	// Name labels the device in telemetry and errors. Optional; non-empty
	// names must be unique across the fleet (and the warm pool). Unnamed
	// devices get "device-N" by fleet index; a Count > 1 group expands to
	// "name#0", "name#1", ...
	Name string
	// Count replicates this spec into that many identical fleet members
	// (each gets its own engine seeded from Config.Seed + replica). The
	// zero value means 1; negative counts are rejected.
	Count int
	// Policy names the device's admission/ordering discipline ("fcfs",
	// "sjf", "priority", "deadline"); empty means fcfs.
	Policy string
	// MaxInFlight, when positive, sheds arrivals beyond this many
	// admitted unfinished requests on this device.
	MaxInFlight int
	// Slowdown is the straggler factor: wall-clock stretch of every
	// device slice (thermal throttling, background load). 0 (the zero
	// value) and 1 mean none; negative or NaN values are rejected.
	Slowdown float64
	// FailAt, when positive, fail-stops the device at that fleet time:
	// it finishes its in-progress slice, then all its unfinished requests
	// are requeued to the surviving devices (partial work lost).
	FailAt float64
}

// AutoscaleConfig attaches the elastic control plane to a cluster: a
// feedback controller observes the fleet at a fixed interval and
// actuates warm-pool joins, drain-and-remove scale-downs, and
// compute-budget tiers. See the package docs' "Elastic serving" section.
type AutoscaleConfig struct {
	// Policy names the controller: "static" (observe only), "threshold"
	// (hysteresis scaling on queue delay and utilization), "pid"
	// (PID-style queue-delay tracking), or "budget" (vertical-only
	// compute-budget governor). Empty means static.
	Policy string
	// Interval is the control period in fleet seconds; required > 0.
	Interval float64
	// WarmPool holds device templates scale-ups instantiate (round-robin;
	// a drained instance returns its slot). Templates must not carry
	// FailAt. Count expands templates exactly like fleet devices.
	WarmPool []DeviceSpec
	// WarmupDelay is how long after a scale-up decision the new device
	// becomes routable (model load and cache prefill); 0 joins instantly.
	WarmupDelay float64
	// MinDevices floors the routable device count drains may reach
	// (default 1); MaxDevices caps routable+warming devices (default
	// fleet size + warm-pool size).
	MinDevices, MaxDevices int
	// MaxTier is the deepest compute-budget degradation tier (each tier
	// halves the effective search width); 0 selects the default of 2.
	MaxTier int
}

// ClusterConfig configures a fleet of heterogeneous edge devices serving
// one request stream behind a router.
type ClusterConfig struct {
	Devices []DeviceSpec
	// Router names the request-routing discipline:
	//
	//	single      pass-through to the first alive device
	//	rr          round-robin (default)
	//	least-work  smallest estimated outstanding work / device speed
	//	jsq         join the shortest queue
	//	p2c         power-of-two-choices on expected drain time
	//	prefix      prefix-affinity with load fallback (§4.2, inter-device)
	//	cache-aware drain time plus re-prefill debt of non-resident prompt
	//	            tokens (needs Config.KVPlane; degenerates to least-work
	//	            without it)
	Router string
	// Seed drives the router's randomness (p2c) and the controller's;
	// device engines draw from their own Config seeds. Equal seeds give
	// bit-identical fleet runs, controller actions included.
	Seed uint64
	// SLOLatency is the per-request wall-latency target in seconds used
	// by FleetRun.Stats and the controller's SLO-attainment signal; 0
	// disables SLO accounting. The "deadline" strategy also derives each
	// request's deadline from this target.
	SLOLatency float64
	// Strategy names the fleet-wide test-time-compute strategy:
	// "full-beam", "first-finish" (optionally "first-finish:k"),
	// "deadline" (early-terminate requests whose SLOLatency-derived
	// deadline passes mid-solve), or "hedged" (replicate every fresh
	// arrival to a second device and cancel the losing copy the instant
	// the first completes; needs at least 2 devices). Empty disables
	// strategies — runs are then bit-identical to pre-strategy builds.
	// The budget governor degrades the strategy to first-finish while its
	// tier is above 0, alongside the width degradation.
	Strategy string
	// Autoscale, when non-nil, attaches the elastic control plane.
	Autoscale *AutoscaleConfig
	// Parallelism is the number of device shards the fleet event loop
	// steps in parallel: 0 or 1 means one shard, run inline on the
	// calling goroutine (the default); >= 2 gives that many shards on
	// worker goroutines; any negative value uses one shard per available
	// core (runtime.GOMAXPROCS). Every setting produces bit-identical
	// results — Parallelism trades wall-clock time only. See
	// docs/ARCHITECTURE.md for the sharding protocol.
	Parallelism int
	// Metrics selects Stats's aggregation mode: MetricsExact (default)
	// retains every sample for exact percentiles; MetricsStreaming folds
	// completions into mergeable quantile sketches as they finish —
	// constant aggregation state, <1% relative error, and bit-identical
	// for every Parallelism setting. SLO attainment in streaming mode is
	// judged against SLOLatency at completion time. See the package
	// docs' "Streaming metrics".
	Metrics MetricsMode
	// Trace, when non-nil, attaches the span flight recorder: every Run
	// records request lifecycles on each device plus the fleet control
	// plane (routing decisions, hedge twins, requeues, ticks, joins,
	// drains) without perturbing the run, and FleetStats gains the
	// latency-attribution rollup. Traces are bit-identical at every
	// Parallelism setting. The recorder accumulates across Runs; call
	// Recorder.Reset between them for per-run traces. See Recorder.
	Trace *Recorder
}

// FleetResult is one fleet-served request: the usual ServedResult plus
// which device produced it and how often failures migrated it.
type FleetResult struct {
	ServedResult
	// Device is the fleet index of the serving (or rejecting) device; -1
	// for requests shed because no device survived to serve them.
	Device int
	// Requeues counts how many device failures displaced this request
	// before this outcome.
	Requeues int
}

// ScalingAction is one applied controller decision in a fleet run's
// action log.
type ScalingAction struct {
	// Time is the control tick the action was decided at.
	Time float64
	// Action is "scale-up", "scale-down", or "set-tier".
	Action string
	// Requested is the controller's asked-for magnitude; Applied is what
	// the fleet actuated after clamping (the resulting tier for
	// "set-tier").
	Requested, Applied int
	// Devices lists the fleet indexes the action touched.
	Devices []int
}

// ControlStats summarizes the elastic control plane's activity over a
// fleet run.
type ControlStats struct {
	// Ticks counts control intervals observed.
	Ticks int
	// ScaleUps / ScaleDowns count devices added from the warm pool /
	// drained out; TierChanges counts applied budget-tier moves.
	ScaleUps, ScaleDowns, TierChanges int
	// FinalTier is the budget tier in effect when the run ended;
	// PeakDevices the maximum concurrently routable device count;
	// DegradedRequests how many requests were served with a narrowed
	// search width.
	FinalTier, PeakDevices, DegradedRequests int
}

// FleetDeviceStats aggregates one device's run.
type FleetDeviceStats struct {
	Device int
	// Name is the device's label (DeviceSpec.Name, "device-N", or
	// "warm:name+J" for the controller's J-th warm-pool instance).
	Name   string
	Served int
	Tokens int64
	// BusyTime is wall-clock seconds spent executing slices (lost work
	// included); Utilization is BusyTime over the device's *live*
	// interval (join to fail/drain/makespan); Goodput is useful tokens
	// per live second.
	BusyTime    float64
	Utilization float64
	Goodput     float64
	// LiveStart is when the device became routable (0 for founding
	// members); LiveSeconds is the length of its live interval.
	LiveStart   float64
	LiveSeconds float64
	Failed      bool
	// Drained marks devices the control plane drained out mid-run.
	Drained bool
	// KV memory-plane telemetry (all zero when Config.KVPlane is off):
	// capacity and end-of-run usage in tokens, the occupancy fraction,
	// prompt-prefix hit/miss/evicted token counts, and the total
	// re-prefill latency the device charged for prompt misses.
	CacheCapacityTokens int64
	CacheUsedTokens     int64
	CacheOccupancy      float64
	CacheHitTokens      int64
	CacheMissTokens     int64
	CacheEvictedTokens  int64
	ReprefillSeconds    float64
}

// FleetStats aggregates a fleet-served request stream: the server-level
// aggregates over the merged stream plus fleet-only metrics.
type FleetStats struct {
	ServeStats
	PerDevice []FleetDeviceStats
	// ImbalanceCV is the load-imbalance coefficient: the coefficient of
	// variation of per-device busy time (0 = perfectly balanced),
	// time-weighted over each device's live interval so late joiners and
	// drained devices don't read as imbalance.
	ImbalanceCV float64
	// Requeues counts failure-induced request migrations.
	Requeues int
	// PrefixHitRate is the fleet prompt-prefix KV hit rate in tokens (0
	// when no prefix traffic).
	PrefixHitRate float64
	// CacheHitRate is the fleet KV memory-plane hit rate in tokens:
	// unlike PrefixHitRate (the routing directory's estimate), it
	// reflects actual residency after capacity eviction. Zero when
	// Config.KVPlane is off fleet-wide.
	CacheHitRate float64
	// CacheHitTokens / CacheMissTokens / CacheEvictedTokens sum the
	// per-device memory-plane counters; ReprefillSeconds is the fleet's
	// total re-prefill latency charged for prompt misses.
	CacheHitTokens     int64
	CacheMissTokens    int64
	CacheEvictedTokens int64
	ReprefillSeconds   float64
	FailedDevices      int
	// DeviceSeconds is the fleet's capacity cost: the summed live time of
	// every member. The SLO-vs-cost tradeoff compares it against
	// SLOAttainment across controllers.
	DeviceSeconds float64
	// Control summarizes the controller's activity; nil without one.
	Control *ControlStats
	// Attribution is the latency-attribution rollup over finished
	// requests; non-nil only when ClusterConfig.Trace attached a
	// recorder to the run.
	Attribution *AttributionStats
}

// Cluster serves request streams with a fleet of heterogeneous edge
// devices. Each device runs its own multi-tenant serving engine (its own
// GPU, model pair, policy, and virtual clock); a pluggable router assigns
// every request to a device at its arrival instant; device fail-stops
// requeue unfinished work to the survivors. With Autoscale configured,
// an elastic control plane additionally grows the fleet from a warm
// pool, drains it back down, and governs the per-request compute budget
// from observed load. A 1-device cluster with the "single" router
// reproduces Server's results exactly. Clusters are reusable: every Run
// builds a fresh fleet, so equal seeds give bit-identical runs.
//
// The underlying fleet core dispatches arrivals, failures, joins, and
// control ticks from event heaps and reads per-device load from O(1)
// incremental indexes, so Run scales to fleets of hundreds to thousands
// of devices — scheduling overhead grows with events·log(devices), not
// events·devices.
type Cluster struct {
	devices  []cluster.Device
	names    []string
	warm     []cluster.Device
	warmN    []string
	auto     *AutoscaleConfig
	router   string
	seed     uint64
	slo      float64
	shards   int
	mode     metrics.Mode
	strategy search.Strategy
	trace    *Recorder
}

// FleetRun is the outcome of one Cluster.Run.
type FleetRun struct {
	// Results holds per-request outcomes in fleet event order (each
	// device's completions in completion order, interleaved at global
	// event granularity).
	Results []FleetResult
	// Actions is the controller's applied-action log in decision order;
	// nil without Autoscale. Equal seeds give bit-identical logs.
	Actions []ScalingAction
	stats   FleetStats
}

// Stats returns the fleet-level aggregates of the run, computed with the
// cluster's SLOLatency.
func (fr *FleetRun) Stats() FleetStats { return fr.stats }

// expandDeviceSpecs validates a spec list and expands Count groups into
// concrete per-device configs and names. seen tracks explicit names
// across lists (fleet + warm pool).
func expandDeviceSpecs(specs []DeviceSpec, kind, defPrefix string, seen map[string]bool) ([]cluster.Device, []string, error) {
	var devices []cluster.Device
	var names []string
	for i, spec := range specs {
		if spec.Count < 0 {
			return nil, nil, fmt.Errorf("fasttts: %s %d (%s): Count must be positive, got %d (0 selects 1)",
				kind, i, describeSpec(spec, i), spec.Count)
		}
		if spec.Slowdown < 0 || math.IsNaN(spec.Slowdown) {
			return nil, nil, fmt.Errorf("fasttts: %s %d (%s): Slowdown must be non-negative, got %v (0 means none)",
				kind, i, describeSpec(spec, i), spec.Slowdown)
		}
		if spec.KVPlaneBytes < 0 {
			return nil, nil, fmt.Errorf("fasttts: %s %d (%s): KVPlaneBytes must be non-negative, got %d (0 disables the memory plane)",
				kind, i, describeSpec(spec, i), spec.KVPlaneBytes)
		}
		if math.IsNaN(spec.FailAt) {
			return nil, nil, fmt.Errorf("fasttts: %s %d (%s): FailAt is NaN", kind, i, describeSpec(spec, i))
		}
		if spec.Name != "" {
			if seen[spec.Name] {
				return nil, nil, fmt.Errorf("fasttts: duplicate device name %q: names identify devices in telemetry and must be unique",
					spec.Name)
			}
			seen[spec.Name] = true
		}
		count := spec.Count
		if count == 0 {
			count = 1
		}
		for rep := 0; rep < count; rep++ {
			cfg := spec.Config
			cfg.Seed = spec.Config.Seed + uint64(rep)
			coreCfg, err := buildCoreConfig(cfg)
			if err != nil {
				return nil, nil, fmt.Errorf("fasttts: %s %d (%s): %w", kind, i, describeSpec(spec, i), err)
			}
			pol, err := sched.PolicyByName(spec.Policy)
			if err != nil {
				return nil, nil, fmt.Errorf("fasttts: %s %d (%s): %w", kind, i, describeSpec(spec, i), err)
			}
			if spec.MaxInFlight > 0 {
				pol = sched.AdmissionLimit{Inner: pol, MaxInFlight: spec.MaxInFlight}
			}
			devices = append(devices, cluster.Device{
				Config:   coreCfg,
				Policy:   pol,
				Slowdown: spec.Slowdown,
				FailAt:   spec.FailAt,
			})
			name := spec.Name
			switch {
			case name == "":
				name = fmt.Sprintf("%s-%d", defPrefix, len(names))
			case count > 1:
				name = fmt.Sprintf("%s#%d", spec.Name, rep)
			}
			// Derived names (positional and replica-suffixed) share the
			// namespace with explicit ones: an explicit "device-1" next to
			// an unnamed second device, or "a#0" next to a Count group
			// named "a", would reproduce exactly the ambiguous telemetry
			// the uniqueness rule exists to prevent.
			if name != spec.Name && seen[name] {
				return nil, nil, fmt.Errorf("fasttts: device name %q collides with the derived name of %s %d (%s): names identify devices in telemetry and must be unique",
					name, kind, i, describeSpec(spec, i))
			}
			seen[name] = true
			names = append(names, name)
		}
	}
	return devices, names, nil
}

// describeSpec names a spec in errors without relying on validation
// having succeeded.
func describeSpec(spec DeviceSpec, i int) string {
	if spec.Name != "" {
		return spec.Name
	}
	if spec.GPU != "" {
		return spec.GPU
	}
	return fmt.Sprintf("spec %d", i)
}

// NewCluster validates the configuration and builds the cluster.
func NewCluster(cc ClusterConfig) (*Cluster, error) {
	if len(cc.Devices) == 0 {
		return nil, fmt.Errorf("fasttts: cluster needs at least one device")
	}
	if _, err := cluster.RouterByName(cc.Router); err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	devices, names, err := expandDeviceSpecs(cc.Devices, "device", "device", seen)
	if err != nil {
		return nil, err
	}
	mode, err := metrics.ParseMode(string(cc.Metrics))
	if err != nil {
		return nil, fmt.Errorf("fasttts: %w", err)
	}
	strat, err := search.ParseStrategy(cc.Strategy)
	if err != nil {
		return nil, fmt.Errorf("fasttts: %w", err)
	}
	c := &Cluster{devices: devices, names: names, router: cc.Router, seed: cc.Seed, slo: cc.SLOLatency, shards: cc.Parallelism, mode: mode, strategy: strat, trace: cc.Trace}
	if cc.Autoscale != nil {
		auto := *cc.Autoscale
		if _, err := control.ByName(auto.Policy); err != nil {
			return nil, err
		}
		c.warm, c.warmN, err = expandDeviceSpecs(auto.WarmPool, "warm-pool template", "tmpl", seen)
		if err != nil {
			return nil, err
		}
		if auto.MaxTier == 0 {
			auto.MaxTier = 2
		}
		c.auto = &auto
	}
	// Fail fast on anything fleet construction itself would reject.
	if _, err := c.newFleet(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Cluster) newFleet() (*cluster.Fleet, error) {
	router, err := cluster.RouterByName(c.router)
	if err != nil {
		return nil, err
	}
	cfg := cluster.Config{
		Devices: c.devices, Router: router, Seed: c.seed, Shards: c.shards,
		Metrics: c.mode, SLOLatency: c.slo, Strategy: c.strategy,
		Obs: c.trace.rec(),
	}
	if c.auto != nil {
		ctl, err := control.ByName(c.auto.Policy)
		if err != nil {
			return nil, err
		}
		cfg.Control = &cluster.ControlConfig{
			Controller:  ctl,
			Interval:    c.auto.Interval,
			Warm:        c.warm,
			WarmupDelay: c.auto.WarmupDelay,
			MinDevices:  c.auto.MinDevices,
			MaxDevices:  c.auto.MaxDevices,
			MaxTier:     c.auto.MaxTier,
			SLOLatency:  c.slo,
		}
	}
	return cluster.New(cfg)
}

// Run serves an open-loop request stream across the fleet.
func (c *Cluster) Run(reqs []Request) (*FleetRun, error) {
	fleet, err := c.newFleet()
	if err != nil {
		return nil, err
	}
	inner := make([]core.Request, len(reqs))
	for i, r := range reqs {
		inner[i] = core.Request{
			Problem:  r.Problem.inner,
			Arrival:  r.ArrivalTime,
			Priority: r.Priority,
			Deadline: r.Deadline,
			Tag:      i,
		}
	}
	out, err := fleet.Run(inner)
	if err != nil {
		return nil, err
	}
	fr := &FleetRun{Results: make([]FleetResult, len(out.Results))}
	for i, r := range out.Results {
		var res *Result
		if r.Result != nil {
			res = wrapResult(r.Result)
		}
		fr.Results[i] = FleetResult{
			ServedResult: ServedResult{
				Result:       res,
				ArrivalTime:  r.Arrival,
				StartTime:    r.Start,
				FinishTime:   r.Finish,
				QueueDelay:   r.QueueDelay,
				WallLatency:  r.WallLatency,
				Slices:       r.Slices,
				UsefulTokens: r.UsefulTokens,
				Width:        r.Width,
				Rejected:     r.Rejected,
				Tag:          r.Tag,
			},
			Device:   r.Device,
			Requeues: r.Requeues,
		}
	}
	for _, a := range out.Actions {
		fr.Actions = append(fr.Actions, ScalingAction{
			Time:      a.Time,
			Action:    string(a.Verb),
			Requested: a.N,
			Applied:   a.Applied,
			Devices:   a.Devices,
		})
	}
	fr.stats = c.wrapFleetStats(out.Stats(c.slo))
	return fr, nil
}

// deviceName resolves the display name of fleet index i: founding
// devices carry their expanded spec names; controller-added instances
// are labeled by their warm-pool template and join ordinal.
func (c *Cluster) deviceName(i int) string {
	if i < len(c.names) {
		return c.names[i]
	}
	j := i - len(c.names)
	if len(c.warmN) == 0 {
		return fmt.Sprintf("warm+%d", j)
	}
	return fmt.Sprintf("warm:%s+%d", c.warmN[j%len(c.warmN)], j)
}

func (c *Cluster) wrapFleetStats(m metrics.FleetStats) FleetStats {
	st := FleetStats{
		ServeStats:         wrapServeStats(m.ServeStats),
		ImbalanceCV:        m.ImbalanceCV,
		Requeues:           m.Requeues,
		PrefixHitRate:      m.PrefixHitRate,
		CacheHitRate:       m.CacheHitRate,
		CacheHitTokens:     m.CacheHitTokens,
		CacheMissTokens:    m.CacheMissTokens,
		CacheEvictedTokens: m.CacheEvictedTokens,
		ReprefillSeconds:   m.ReprefillSeconds,
		FailedDevices:      m.FailedDevices,
		DeviceSeconds:      m.DeviceSeconds,
	}
	if m.Attribution != nil {
		attr := wrapAttribution(*m.Attribution)
		st.Attribution = &attr
	}
	if m.Control != nil {
		st.Control = &ControlStats{
			Ticks:            m.Control.Ticks,
			ScaleUps:         m.Control.ScaleUps,
			ScaleDowns:       m.Control.ScaleDowns,
			TierChanges:      m.Control.TierChanges,
			FinalTier:        m.Control.FinalTier,
			PeakDevices:      m.Control.PeakDevices,
			DegradedRequests: m.Control.DegradedRequests,
		}
	}
	for i, d := range m.Devices {
		st.PerDevice = append(st.PerDevice, FleetDeviceStats{
			Device:              i,
			Name:                c.deviceName(i),
			Served:              d.Served,
			Tokens:              d.Tokens,
			BusyTime:            d.Busy,
			Utilization:         d.Utilization,
			Goodput:             d.Goodput,
			LiveStart:           d.LiveStart,
			LiveSeconds:         d.Lifetime,
			Failed:              d.Failed,
			Drained:             d.Drained,
			CacheCapacityTokens: d.CacheCapacityTokens,
			CacheUsedTokens:     d.CacheUsedTokens,
			CacheOccupancy:      d.CacheOccupancy,
			CacheHitTokens:      d.CacheHitTokens,
			CacheMissTokens:     d.CacheMissTokens,
			CacheEvictedTokens:  d.CacheEvictedTokens,
			ReprefillSeconds:    d.ReprefillSeconds,
		})
	}
	return st
}

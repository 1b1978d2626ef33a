package cluster

// Pluggable request routing for the heterogeneous edge fleet. A Router
// assigns each arriving (or failure-requeued) request to one alive
// device. Routers may keep internal state (round-robin counters, the
// prefix-affinity directory) but must be deterministic functions of the
// call sequence and their private random stream — the fleet guarantees
// bit-identical served streams for equal seeds, and a router that
// consults wall clocks or map iteration order breaks that.

import (
	"fmt"
	"strings"

	"fasttts/internal/memplane"
	"fasttts/internal/rng"
)

// RequestView is a router's read-only view of one arriving request.
type RequestView struct {
	// Tag is the request's stream identity (stable across requeues).
	Tag int
	// Arrival is the fleet time of this routing decision.
	Arrival float64
	// PrefixKey identifies the request's shared prompt prefix: requests
	// with equal keys re-use each other's prompt KV on the same device.
	PrefixKey string
	// PromptTokens is the request's prompt length — the tokens a device
	// without the prefix resident would have to re-prefill.
	PromptTokens int
	// Requeued marks failure-induced re-routing (the original device
	// fail-stopped with this request unfinished).
	Requeued bool
}

// DeviceView is a router's read-only view of one alive device.
type DeviceView struct {
	// Index is the device's fleet index (stable across failures of other
	// devices); the Route result is a position in the alive slice, not an
	// Index.
	Index int
	// Now is the device's virtual clock.
	Now float64
	// Pending is the device's outstanding population: admitted unfinished
	// requests plus queued arrivals.
	Pending int
	// OutstandingWork is the estimated remaining service demand in token
	// units (see sched.EstimateDemand).
	OutstandingWork float64
	// Speed is the device's relative service speed: decode-bandwidth
	// share scaled down by the straggler factor. Units are arbitrary but
	// consistent across devices.
	Speed float64
	// Mem is the device's KV memory plane; nil when the plane is
	// disabled. Routers may probe it (prefix residency, occupancy) only
	// inside Route — the fleet quiesces every device at the arrival's
	// event barrier before routing, on both execution engines.
	Mem *memplane.Plane
	// CacheOccupancy is the plane's used/capacity fraction as of the
	// device's last refresh; 0 when the plane is disabled.
	CacheOccupancy float64
}

// Router assigns requests to fleet devices.
type Router interface {
	// Name identifies the router ("rr", "p2c", ...).
	Name() string
	// Route returns the position in devices (non-empty, alive fleet
	// members sorted by Index) of the device that receives the request.
	// r is the router's private deterministic random stream. Route must
	// not retain devices: the fleet reuses the slice after the call.
	Route(rq RequestView, devices []DeviceView, r *rng.Stream) int
}

// ViewOblivious marks routers whose decisions never read device *load*
// — DeviceView.Now, Pending, or OutstandingWork — only the routable
// set's size and order plus private state. The fleet pre-routes whole
// arrival spans for such routers and replays devices barrier-free;
// view-reading routers make every arrival a cross-shard synchronization
// point. A router that reads load but implements this interface
// returning true breaks the fleet's bit-identity contract.
type ViewOblivious interface {
	RouteViewOblivious() bool
}

// Single routes every request to the first alive device: the
// pass-through router. A 1-device fleet under Single reproduces the
// single-Server results of the serving engine exactly.
type Single struct{}

func (Single) Name() string                                     { return "single" }
func (Single) Route(RequestView, []DeviceView, *rng.Stream) int { return 0 }
func (Single) RouteViewOblivious() bool                         { return true }

// RoundRobin cycles through the alive devices in index order,
// oblivious to load and heterogeneity — the fleet baseline.
type RoundRobin struct{ n int }

func (*RoundRobin) Name() string { return "rr" }
func (rr *RoundRobin) Route(_ RequestView, devices []DeviceView, _ *rng.Stream) int {
	i := rr.n % len(devices)
	rr.n++
	return i
}
func (*RoundRobin) RouteViewOblivious() bool { return true }

// WorkAware marks routers whose decisions read
// DeviceView.OutstandingWork; the fleet computes that load signal —
// O(in-flight + queued) remaining-work estimations per device — only
// for routers that declare the need.
type WorkAware interface {
	NeedsOutstandingWork() bool
}

// Ranked marks routers whose pick is always the minimum of a fixed
// strict total order over device views: the order does not depend on
// the request, the router's state, or its random stream, and Route must
// return exactly argmin over devices under Less. The fleet exploits the
// contract with a tournament tree over its device views, re-ranked in
// O(log n) per view refresh, and takes the root instead of calling
// Route — so a Ranked router's Route must not consume randomness or
// keep state either. Route stays the reference implementation (the
// fleet still calls it over partial views, such as a hedge twin's).
type Ranked interface {
	Less(a, b DeviceView) bool
}

// argmin returns the position of the minimum of devices (non-empty)
// under the strict total order less — the shared scan of the Ranked
// routers. The order takes pointers so the inlined scan compares views
// in place instead of copying two per device.
func argmin(devices []DeviceView, less func(a, b *DeviceView) bool) int {
	best := 0
	for i := 1; i < len(devices); i++ {
		if less(&devices[i], &devices[best]) {
			best = i
		}
	}
	return best
}

// LeastWork routes to the device with the smallest expected drain time:
// estimated outstanding work divided by device speed (ties by pending
// count, then index — the shared better() ordering). It is the
// fleet-level analogue of the SJF serve policy — both consume
// sched.EstimateDemand — and the strongest signal for heterogeneous
// fleets. It is Ranked, so the fleet routes it in O(log devices) per
// request from its tournament tree rather than scanning every view.
type LeastWork struct{}

func (LeastWork) Name() string               { return "least-work" }
func (LeastWork) NeedsOutstandingWork() bool { return true }
func (LeastWork) Less(a, b DeviceView) bool  { return better(&a, &b) }
func (LeastWork) Route(_ RequestView, devices []DeviceView, _ *rng.Stream) int {
	return argmin(devices, better)
}

func drainTime(d *DeviceView) float64 {
	if d.Speed <= 0 {
		return d.OutstandingWork
	}
	return d.OutstandingWork / d.Speed
}

// JSQ joins the shortest queue: the device with the fewest outstanding
// requests, ties to the lower index. Like LeastWork it is Ranked.
type JSQ struct{}

func (JSQ) Name() string              { return "jsq" }
func (JSQ) Less(a, b DeviceView) bool { return shorter(&a, &b) }
func (JSQ) Route(_ RequestView, devices []DeviceView, _ *rng.Stream) int {
	return argmin(devices, shorter)
}

// shorter orders devices by pending count, then index.
func shorter(a, b *DeviceView) bool {
	if a.Pending != b.Pending {
		return a.Pending < b.Pending
	}
	return a.Index < b.Index
}

// PowerOfTwo samples two distinct candidate devices uniformly and joins
// the one with the smaller expected drain time — the classic
// power-of-two-choices load balancer, which gets most of JSQ's balance
// while inspecting only two devices per request.
type PowerOfTwo struct{}

func (PowerOfTwo) Name() string               { return "p2c" }
func (PowerOfTwo) NeedsOutstandingWork() bool { return true }
func (PowerOfTwo) Route(_ RequestView, devices []DeviceView, r *rng.Stream) int {
	if len(devices) == 1 {
		return 0
	}
	i := r.IntN(len(devices))
	j := r.IntN(len(devices) - 1)
	if j >= i {
		j++
	}
	if better(&devices[j], &devices[i]) {
		return j
	}
	return i
}

// better orders devices by expected drain time, then pending count, then
// index — the shared load comparison of the state-aware routers.
func better(a, b *DeviceView) bool {
	da, db := drainTime(a), drainTime(b)
	if da != db {
		return da < db
	}
	if a.Pending != b.Pending {
		return a.Pending < b.Pending
	}
	return a.Index < b.Index
}

// CacheAware routes by effective drain time including the memory cost of
// a cold prompt: (outstanding work + prompt tokens not resident in the
// device's KV plane) / speed. Both terms are in token units — outstanding
// work is estimated demand in tokens, and a non-resident prompt token is
// a token the device must re-prefill before serving. On fleets without a
// memory plane every device misses the full prompt equally and the router
// degenerates to least-work. Unlike PrefixAffinity's home directory, the
// residency signal is the device's *actual* cache content, so eviction
// under pressure automatically redirects traffic.
type CacheAware struct{}

func (CacheAware) Name() string               { return "cache-aware" }
func (CacheAware) NeedsOutstandingWork() bool { return true }
func (CacheAware) Route(rq RequestView, devices []DeviceView, _ *rng.Stream) int {
	best, bestCost := 0, cacheCost(rq, devices[0])
	for i := 1; i < len(devices); i++ {
		c := cacheCost(rq, devices[i])
		d, b := devices[i], devices[best]
		if c < bestCost ||
			(c == bestCost && (d.Pending < b.Pending ||
				(d.Pending == b.Pending && d.Index < b.Index))) {
			best, bestCost = i, c
		}
	}
	return best
}

// cacheCost is a device's expected time to absorb the request: current
// drain time plus the re-prefill debt of the non-resident prompt tokens.
func cacheCost(rq RequestView, d DeviceView) float64 {
	miss := rq.PromptTokens
	if d.Mem != nil {
		miss -= d.Mem.ResidentPromptTokens(rq.PrefixKey, rq.PromptTokens)
	}
	work := d.OutstandingWork + float64(miss)
	if d.Speed <= 0 {
		return work
	}
	return work / d.Speed
}

// PrefixAffinity extends the paper's §4.2 prefix-aware scheduling from
// intra-device to inter-device: requests sharing a prompt prefix are
// routed to the device whose radix KV cache already holds it, so the
// prompt prefill is served from cache instead of being recomputed. When
// the affine device's backlog exceeds the fleet minimum by more than
// LoadSlack requests (or the device failed), the router falls back to
// the load-based Fallback and re-homes the prefix there — cache locality
// must not create hotspots.
type PrefixAffinity struct {
	// Fallback routes prefix misses and overloaded hits; nil means
	// LeastWork.
	Fallback Router
	// LoadSlack is how many requests beyond the least-loaded device's
	// backlog the affine device may hold before affinity is abandoned;
	// 0 means 4.
	LoadSlack int
	// MaxPrefixes bounds the affinity directory: when a new prefix would
	// exceed it, the oldest-homed prefix is forgotten (deterministic FIFO
	// on first-homing order). 0 means 4096; negative means unbounded.
	// Without a bound the directory grows with every distinct prefix ever
	// routed — a leak on long multi-tenant streams.
	MaxPrefixes int
	home        map[string]int // prefix key -> device Index
	order       []string       // home keys in first-homing order (FIFO eviction)
}

func (p *PrefixAffinity) Name() string { return "prefix" }

func (p *PrefixAffinity) NeedsOutstandingWork() bool {
	if p.Fallback == nil {
		return true // the default fallback is LeastWork
	}
	wa, ok := p.Fallback.(WorkAware)
	return ok && wa.NeedsOutstandingWork()
}

func (p *PrefixAffinity) Route(rq RequestView, devices []DeviceView, r *rng.Stream) int {
	if p.home == nil {
		p.home = make(map[string]int)
	}
	fallback := p.Fallback
	if fallback == nil {
		fallback = LeastWork{}
	}
	slack := p.LoadSlack
	if slack == 0 {
		slack = 4
	}
	minPending := devices[0].Pending
	for _, d := range devices[1:] {
		if d.Pending < minPending {
			minPending = d.Pending
		}
	}
	if home, ok := p.home[rq.PrefixKey]; ok {
		for i, d := range devices {
			if d.Index == home {
				if d.Pending <= minPending+slack {
					return i
				}
				break // alive but overloaded: re-home
			}
		}
	}
	i := fallback.Route(rq, devices, r)
	if _, homed := p.home[rq.PrefixKey]; !homed {
		limit := p.MaxPrefixes
		if limit == 0 {
			limit = 4096
		}
		if limit > 0 && len(p.home) >= limit {
			oldest := p.order[0]
			p.order = p.order[1:]
			delete(p.home, oldest)
		}
		p.order = append(p.order, rq.PrefixKey)
	}
	p.home[rq.PrefixKey] = devices[i].Index
	return i
}

// RouterByName resolves a fresh router from its CLI/config name:
// "single", "rr", "least-work", "jsq", "p2c", "prefix", or
// "cache-aware".
func RouterByName(name string) (Router, error) {
	switch strings.ToLower(name) {
	case "single", "passthrough":
		return Single{}, nil
	case "", "rr", "round-robin":
		return &RoundRobin{}, nil
	case "least-work", "lw":
		return LeastWork{}, nil
	case "jsq", "shortest-queue":
		return JSQ{}, nil
	case "p2c", "power-of-two":
		return PowerOfTwo{}, nil
	case "prefix", "prefix-affinity":
		return &PrefixAffinity{}, nil
	case "cache-aware", "cache":
		return CacheAware{}, nil
	}
	return nil, fmt.Errorf("cluster: unknown router %q (want single, rr, least-work, jsq, p2c, prefix, or cache-aware)", name)
}

// RouterNames lists the built-in router names in display order.
func RouterNames() []string {
	return []string{"single", "rr", "least-work", "jsq", "p2c", "prefix", "cache-aware"}
}

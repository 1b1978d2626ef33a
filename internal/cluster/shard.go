package cluster

// The shard layer: how Fleet.Run steps devices between global events.
//
// Devices are partitioned into shards by index (dev % shards), each shard
// owning its devices' runtime state and an indexed wake heap. Config.Shards
// 0 and 1 give a single shard whose passes run inline on the driver
// goroutine. With more shards, workers advance their devices concurrently
// between *cross-shard* events — routing decisions that read fleet state,
// fail-stops, control ticks, warm-pool joins — which act as conservative
// barriers: no worker ever steps past the next event that could couple two
// shards.
//
// Outcomes are bit-identical at every shard count by construction, not by
// tolerance. Three properties make it work:
//
//  1. Device independence inside a window. Between global events, device
//     loops share no mutable state (each core.Loop owns its clock, queue,
//     solver, and rng streams), so steps commute across devices and only
//     the *merge order* of their completions matters.
//  2. Replayed horizons. core.Loop.StepTo is horizon-sensitive (the
//     speculation probe uses the horizon as its pending boundary), so
//     workers replay each device against the exact per-event horizon grid
//     of the event loop — never a coarser fast-forward.
//  3. Canonical merge. Workers only step devices and settle their prefix
//     accounting (two integer counters). Every completion then reaches
//     the outcome through run.deliver on the driver, in canonical order —
//     (event window, step-before-route, device index) — so every
//     order-sensitive fold (hedge resolution, controller window floats,
//     streaming sketches) sees one sequence at every shard count.
//
// Routers split the dispatch strategy in two:
//
//   - ViewOblivious routers (single, rr) never read device load, so every
//     routing decision between two structural events (fail / tick / join
//     / end of stream) can be made up front. The engine pre-routes the
//     whole *span* of arrivals centrally, hands each shard its devices'
//     push lists, and workers replay the span with zero intermediate
//     barriers — the scalable path.
//   - View-reading routers (least-work, jsq, p2c, prefix) make every
//     arrival a cross-shard event: spans degrade to single windows and
//     only the devices due inside one window are stepped in parallel.
//     Sparse windows run inline (below spawnThreshold) to avoid paying
//     synchronization for one or two devices; dense windows — control
//     ticks, drain phases, the terminal drain — still fan out wide.
//
// Worker scheduling never influences results: each worker touches only
// its shard's devices and heap, results carry canonical keys, and the
// merge is single-threaded. GOMAXPROCS therefore changes wall time only.
// The one intentional divergence: on *error* runs (router misbehavior,
// solver faults) the outcome is discarded and only the error surfaces,
// but which of several faults inside one arrival span is reported may
// depend on the shard count.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"fasttts/internal/core"
)

// spawnThreshold is the minimum number of per-pass device tasks worth
// fanning out to shard workers; below it the same code path runs inline
// on the driver goroutine (identical results, no goroutine round-trip).
const spawnThreshold = 4

// spanPush is one pre-routed request a shard worker must push to its
// device at a span window.
type spanPush struct {
	win int    // window index in the span's horizon grid
	key string // prefix key (computed centrally at route time)
	pr  pendingReq
}

// spanShed is one arrival a span shed for lack of a routable device.
type spanShed struct {
	win int
	res Result
}

// resGroup is the completions one device produced at one window, in
// completion order — the unit of the canonical merge.
type resGroup struct {
	win, dev int
	served   []core.ServedResult
}

func cmpGroup(a, b resGroup) int {
	if c := cmp.Compare(a.win, b.win); c != 0 {
		return c
	}
	return cmp.Compare(a.dev, b.dev)
}

// shard is one device partition: its wake heap, the devices it steps in
// the current pass, and the pass's output. Only the shard's worker
// touches it during a pass; the driver reads it in the merge.
type shard struct {
	wake   wakeHeap
	tasks  []int
	groups []resGroup
	prefix prefixCount // order-independent, folded by the merge
	err    error
	errWin int
	errDev int
	head   int // merge cursor
}

func (sh *shard) setErr(win, dev int, err error) {
	if sh.err == nil {
		sh.err, sh.errWin, sh.errDev = err, win, dev
	}
}

// shardSet is the engine's device-side state: the shards, the pass the
// workers run next, and reusable scratch for spans.
type shardSet struct {
	shards    []shard
	oblivious bool

	// The current pass, set by the driver before runWorkers: a span
	// replay over times, or a collect pass to horizon.
	span    bool
	horizon float64
	times   []float64

	// Span scratch, reused across spans.
	pushes  [][]spanPush // indexed by device; non-empty only mid-span
	touched []int        // devices with pushes in the current span
	shed    []spanShed
	wg      sync.WaitGroup
}

func newShardSet(r *run, n int) *shardSet {
	nd := len(r.devs)
	ss := &shardSet{shards: make([]shard, n)}
	per := nd/n + 1
	for s := range ss.shards {
		// Size the per-pass buffers for the shard's founding devices up
		// front instead of growing them pass by pass.
		ss.shards[s] = shard{wake: newWakeHeap(nd), tasks: make([]int, 0, per), groups: make([]resGroup, 0, per)}
	}
	if vo, ok := r.f.cfg.Router.(ViewOblivious); ok {
		ss.oblivious = vo.RouteViewOblivious()
	}
	if r.hedging() {
		// Hedge resolution is order-sensitive (the first copy to complete
		// wins and cancels its cross-shard twin), so every completion must
		// pass the driver's canonical merge before the next routing
		// decision: arrival spans collapse to single barrier windows.
		ss.oblivious = false
	}
	if ss.oblivious {
		ss.pushes = make([][]spanPush, nd)
	}
	return ss
}

// wakeMin returns the earliest wake time across the shard heaps.
func (ss *shardSet) wakeMin() (float64, bool) {
	best, ok := 0.0, false
	for s := range ss.shards {
		if at, has := ss.shards[s].wake.min(); has && (!ok || at < best) {
			best, ok = at, true
		}
	}
	return best, ok
}

// wakeLen counts the devices with a pending wake across all shards.
func (ss *shardSet) wakeLen() int {
	total := 0
	for s := range ss.shards {
		total += ss.shards[s].wake.Len()
	}
	return total
}

func (ss *shardSet) shardOf(dev int) *shard { return &ss.shards[dev%len(ss.shards)] }

// setWake refreshes one device's entry in its shard's heap. Only that
// shard's worker, or the driver between passes, may call it.
func (ss *shardSet) setWake(dev int, loop *core.Loop) {
	h := &ss.shardOf(dev).wake
	if at, ok := loop.Wake(); ok {
		h.update(dev, at)
	} else {
		h.remove(dev)
	}
}

func (ss *shardSet) wakeRemove(dev int) { ss.shardOf(dev).wake.remove(dev) }

// grow extends the device-index space by k warm-pool joins.
func (ss *shardSet) grow(k int) {
	for s := range ss.shards {
		ss.shards[s].wake.grow(k)
	}
	if ss.pushes != nil {
		ss.pushes = append(ss.pushes, make([][]spanPush, k)...)
	}
}

// stepDevice advances one device to the horizon, settles the prefix
// accounting of its completions, and appends them as a result group. It
// runs on the device's shard worker: everything it touches — the loop,
// the device's prefix directory and accounting, the shard's output — is
// shard-owned. Prefix settlement cannot wait for the merge: later pushes
// in the same span read the device's directory.
func (sh *shard) stepDevice(r *run, dev, win int, horizon float64) error {
	d := r.devs[dev]
	served, err := d.loop.StepTo(horizon)
	if err != nil {
		return fmt.Errorf("cluster: device %d: %w", dev, err)
	}
	if len(served) > 0 {
		for _, sv := range served {
			d.settlePrefix(sv, &sh.prefix)
		}
		sh.groups = append(sh.groups, resGroup{win: win, dev: dev, served: served})
	}
	d.checkDrained()
	return nil
}

// collect pops the devices due within the horizon from every shard heap,
// steps them (fanning out to shard workers when the due population is
// dense), and merges completions in device-index order.
func (ss *shardSet) collect(r *run, horizon float64) error {
	total := 0
	for s := range ss.shards {
		sh := &ss.shards[s]
		sh.tasks = sh.wake.popDue(horizon, sh.tasks[:0])
		total += len(sh.tasks)
	}
	if total == 0 {
		return nil
	}
	ss.span, ss.horizon = false, horizon
	ss.runWorkers(r, total)
	// Re-rank on the coordinator: tree paths cross shards.
	for s := range ss.shards {
		for _, dev := range ss.shards[s].tasks {
			r.rerank(dev)
		}
	}
	return ss.merge(r)
}

// runSpan drives the view-oblivious fast path: pop and pre-route every
// arrival strictly before the next structural event (or all remaining
// arrivals when none is pending), then let each shard replay its devices
// across the whole span without barriers.
func (ss *shardSet) runSpan(r *run, structAt float64, bounded bool) error {
	ss.times, ss.touched = ss.times[:0], ss.touched[:0]
	for {
		head, ok := r.nextArrival()
		if !ok || (bounded && head.req.Arrival >= structAt) {
			break
		}
		pr := r.popArrival()
		w := len(ss.times)
		ss.times = append(ss.times, pr.req.Arrival)
		if len(r.vs) == 0 {
			// Routable membership only changes at structural events, so
			// the rest of the span sheds too.
			ss.shed = append(ss.shed, spanShed{win: w, res: r.shed(pr)})
			continue
		}
		rv := r.requestView(pr)
		pick, err := r.pick(rv, r.vs)
		if err != nil {
			return err
		}
		di := r.vs[pick].Index
		r.emitRoute(rv.Tag, rv.Arrival, di, r.vs)
		r.applyStrategy(&pr.req, di)
		if len(ss.pushes[di]) == 0 {
			ss.touched = append(ss.touched, di)
		}
		ss.pushes[di] = append(ss.pushes[di], spanPush{win: w, key: rv.PrefixKey, pr: pr})
	}
	if len(ss.times) == 0 {
		return nil
	}

	// Task set per shard: devices due anywhere inside the span, plus the
	// push targets. Everything else provably idles through the span.
	tLast := ss.times[len(ss.times)-1]
	for s := range ss.shards {
		sh := &ss.shards[s]
		sh.tasks = sh.wake.popDue(tLast, sh.tasks[:0])
	}
	for _, dev := range ss.touched {
		sh := ss.shardOf(dev)
		sh.tasks = append(sh.tasks, dev)
	}
	total := 0
	for s := range ss.shards {
		sh := &ss.shards[s]
		sh.tasks = sortedUnique(sh.tasks)
		total += len(sh.tasks)
	}
	ss.span = true
	ss.runWorkers(r, total)

	for _, dev := range ss.touched {
		ss.pushes[dev] = ss.pushes[dev][:0]
	}
	return ss.merge(r)
}

// replayDevice replays one device's exact event-loop timeline across the
// span's horizon grid: it steps at every window the device would have
// been due at (its wake time is a pure function of its own state between
// structural events) and interleaves its pre-routed pushes, each at its
// own window, step before push. Returns false on error.
func (ss *shardSet) replayDevice(r *run, sh *shard, dev int) bool {
	d := r.devs[dev]
	times, pushes := ss.times, ss.pushes[dev]
	last, pi := -1, 0
	for {
		stepJ := len(times)
		if at, ok := d.loop.Wake(); ok {
			stepJ = last + 1 + sort.SearchFloat64s(times[last+1:], at)
		}
		pushJ := len(times)
		if pi < len(pushes) {
			pushJ = pushes[pi].win
		}
		j := min(stepJ, pushJ)
		if j >= len(times) {
			break
		}
		if stepJ == j {
			if err := sh.stepDevice(r, dev, j, times[j]); err != nil {
				sh.setErr(j, dev, err)
				return false
			}
		}
		if pushJ == j {
			d.push(pushes[pi].pr.req, pushes[pi].key)
			pi++
		}
		last = j
	}
	ss.setWake(dev, d.loop)
	return true
}

// work runs shard s's share of the current pass.
func (ss *shardSet) work(r *run, s int) {
	sh := &ss.shards[s]
	for _, dev := range sh.tasks {
		if ss.span {
			if !ss.replayDevice(r, sh, dev) {
				return
			}
			continue
		}
		if err := sh.stepDevice(r, dev, 0, ss.horizon); err != nil {
			sh.setErr(0, dev, err)
			return
		}
		ss.setWake(dev, r.devs[dev].loop)
		r.writeView(dev)
	}
	if ss.span {
		// Devices replay one at a time; the merge wants window order.
		slices.SortFunc(sh.groups, cmpGroup)
	}
}

func (ss *shardSet) worker(r *run, s int) {
	defer ss.wg.Done()
	ss.work(r, s)
}

// runWorkers runs the current pass on every shard — concurrently when
// the pass is dense enough to amortize the fan-out, inline otherwise.
// Both paths run identical code against disjoint state, so the choice
// affects wall time only.
func (ss *shardSet) runWorkers(r *run, total int) {
	for s := range ss.shards {
		sh := &ss.shards[s]
		clear(sh.groups) // drop the previous pass's result slices
		sh.groups, sh.prefix, sh.err, sh.head = sh.groups[:0], prefixCount{}, nil, 0
	}
	if total < spawnThreshold || len(ss.shards) == 1 {
		for s := range ss.shards {
			ss.work(r, s)
		}
		return
	}
	ss.wg.Add(len(ss.shards))
	for s := range ss.shards {
		go ss.worker(r, s)
	}
	ss.wg.Wait()
}

// merge folds the shard workers' outputs into the run in canonical
// order: (window, step results before the window's routing shed, device
// index). When several shards failed it reports the earliest fault in
// that order.
func (ss *shardSet) merge(r *run) error {
	var err error
	ew, ed := 0, 0
	for s := range ss.shards {
		sh := &ss.shards[s]
		if sh.err != nil && (err == nil || sh.errWin < ew || (sh.errWin == ew && sh.errDev < ed)) {
			err, ew, ed = sh.err, sh.errWin, sh.errDev
		}
		r.prefix.add(sh.prefix)
	}
	if err != nil {
		return err
	}
	sp := 0
	for {
		var best *shard
		for s := range ss.shards {
			sh := &ss.shards[s]
			if sh.head < len(sh.groups) &&
				(best == nil || cmpGroup(sh.groups[sh.head], best.groups[best.head]) < 0) {
				best = sh
			}
		}
		if sp < len(ss.shed) && (best == nil || ss.shed[sp].win < best.groups[best.head].win) {
			r.publishShed(ss.shed[sp].res)
			sp++
			continue
		}
		if best == nil {
			break
		}
		g := best.groups[best.head]
		best.head++
		for _, sv := range g.served {
			r.deliver(g.dev, sv)
		}
	}
	ss.shed = ss.shed[:0] // consumed: collect passes shed nothing
	return nil
}

// sortedUnique sorts xs ascending and drops adjacent duplicates in place.
func sortedUnique(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

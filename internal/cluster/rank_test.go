package cluster

// The Ranked routing path: the tournament tree must always agree with
// the argmin scan it replaces — after every view refresh, fail-stop or
// drain, and warm-pool join, ties included — and fleets routed through
// the tree must serve byte-identical outcomes to fleets routed by the
// scan, on every engine.

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"fasttts/internal/control"
	"fasttts/internal/hw"
	"fasttts/internal/rng"
)

// rankOp is one step of a tree-vs-scan case: refresh the view at
// position P with a new load, drop it, or join a new device.
type rankOp struct {
	Kind    int // 0 refresh, 1 drop, 2 join
	P       int
	Pending int
	Work    float64
	Speed   float64
}

// rankCase is a starting fleet size plus an op sequence. Loads come from
// tiny value sets so ties are the common case: equal drain times (2/1 ==
// 4/2), equal pending counts, and Speed <= 0 (drain time = raw work).
type rankCase struct {
	N   int
	Ops []rankOp
}

func (rankCase) Generate(r *rand.Rand, _ int) reflect.Value {
	works := []float64{0, 1, 2, 4}
	speeds := []float64{-1, 0, 1, 2}
	c := rankCase{N: r.Intn(9)}
	for i := 0; i < 60; i++ {
		op := rankOp{
			Kind:    r.Intn(3),
			P:       r.Intn(16),
			Pending: r.Intn(3),
			Work:    works[r.Intn(len(works))],
			Speed:   speeds[r.Intn(len(speeds))],
		}
		if op.Kind != 0 && r.Intn(3) != 0 {
			op.Kind = 0 // mostly refreshes, as in a fleet run
		}
		c.Ops = append(c.Ops, op)
	}
	return reflect.ValueOf(c)
}

// TestRankTreeMatchesScan drives the run's own view maintenance —
// rerank, dropView, and the join's rebuildRank — and checks after every
// step that the tree root is the minimum of r.vs under Less, found by a
// plain scan, and that the router's Route (the reference) agrees.
func TestRankTreeMatchesScan(t *testing.T) {
	for _, rt := range []Router{LeastWork{}, JSQ{}} {
		rk := rt.(Ranked)
		prop := func(c rankCase) bool {
			r := &run{rank: newRankTree(rk)}
			for i := 0; i < c.N; i++ {
				r.vs = append(r.vs, DeviceView{Index: i, Speed: 1})
				r.posInVs = append(r.posInVs, i)
			}
			r.rebuildRank()
			for step, op := range c.Ops {
				switch {
				case op.Kind == 2: // warm-pool join: appended, largest index
					dev := len(r.posInVs)
					r.posInVs = append(r.posInVs, len(r.vs))
					r.vs = append(r.vs, DeviceView{Index: dev, Pending: op.Pending,
						OutstandingWork: op.Work, Speed: op.Speed})
					r.rebuildRank()
				case len(r.vs) == 0:
				case op.Kind == 1: // fail-stop or drain
					r.dropView(r.vs[op.P%len(r.vs)].Index)
				default: // load refresh
					v := &r.vs[op.P%len(r.vs)]
					v.Pending, v.OutstandingWork, v.Speed = op.Pending, op.Work, op.Speed
					r.rerank(v.Index)
				}
				want := -1
				for p := range r.vs {
					if want < 0 || rk.Less(r.vs[p], r.vs[want]) {
						want = p
					}
				}
				if len(r.vs) > 0 {
					if got := rt.Route(RequestView{}, r.vs, nil); got != want {
						t.Logf("%s step %d: Route %d, scan %d", rt.Name(), step, got, want)
						return false
					}
				}
				if got := r.rank.min(); got != want {
					t.Logf("%s step %d: tree root %d, scan %d over %+v", rt.Name(), step, got, want, r.vs)
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, qc(t, 300)); err != nil {
			t.Errorf("%s: %v", rt.Name(), err)
		}
	}
}

// scanOnly hides a router's Ranked method, so the fleet falls back to
// calling Route — the reference scan — while still computing the load
// signals the router declares it needs.
type scanOnly struct{ Router }

func (s scanOnly) NeedsOutstandingWork() bool {
	wa, ok := s.Router.(WorkAware)
	return ok && wa.NeedsOutstandingWork()
}

// TestRankedFleetDifferential serves the same stream through the tree
// and through the scan, for least-work and jsq, on a fleet with
// fail-stops, a straggler, and an elastic controller that joins and
// drains warm-pool devices, on the sequential engine and at 2 and 3
// shards. Every outcome must equal the sequential scan run exactly.
func TestRankedFleetDifferential(t *testing.T) {
	reqs := taggedStream(t, repeatedProblems(t, 120, 6), 8.0, 17)
	devices := equivFleet(t)
	for i := 0; i < 6; i++ {
		d := Device{Config: devConfig(t, hw.RTX4090, 4, 50+uint64(i))}
		if i == 2 {
			d.FailAt = 6
		}
		devices = append(devices, d)
	}
	warm := []Device{
		{Config: devConfig(t, hw.RTX4090, 4, 70)},
		{Config: devConfig(t, hw.RTX4070Ti, 4, 71)},
	}
	for _, name := range []string{"least-work", "jsq"} {
		mk := func(scan bool, shards int) Config {
			rt, err := RouterByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if scan {
				rt = scanOnly{rt}
			}
			return Config{Devices: devices, Router: rt, Seed: 5, Shards: shards, Control: &ControlConfig{
				Controller:  control.NewThreshold(),
				Interval:    1.5,
				Warm:        warm,
				WarmupDelay: 0.5,
				MaxTier:     2,
				SLOLatency:  20,
			}}
		}
		ref := mustRun(t, mk(true, 0), reqs)
		if len(ref.Actions) == 0 || ref.Requeues == 0 {
			t.Fatalf("%s: scenario exercises no membership change (%d actions, %d requeues)",
				name, len(ref.Actions), ref.Requeues)
		}
		for _, shards := range []int{1, 2, 3} {
			for _, scan := range []bool{false, true} {
				label := name + "/shards=" + strconv.Itoa(shards)
				if scan {
					label += "/scan"
				}
				diffOutcomes(t, label, ref, mustRun(t, mk(scan, shards), reqs))
			}
		}
	}
}

// benchViews builds n views with varied loads, speeds, and ties.
func benchViews(n int) []DeviceView {
	r := rng.New(9).Child("bench/views")
	vs := make([]DeviceView, n)
	for i := range vs {
		vs[i] = DeviceView{Index: i, Pending: r.IntN(8),
			OutstandingWork: float64(r.IntN(400)), Speed: 1 + float64(r.IntN(3))}
	}
	return vs
}

// routeSink keeps the benchmarked picks live.
var routeSink int

// benchmarkRoute times one routing decision as the fleet makes it: one
// view's load changes (the refresh a push or completion causes), then
// the router picks — from the tree root (ranked) or by Route's scan.
func benchmarkRoute(b *testing.B, rt Router, n int) {
	touch := func(vs []DeviceView, i int) int {
		p := (i * 7919) % n
		vs[p].Pending = (vs[p].Pending + 1) % 8
		vs[p].OutstandingWork = float64((i * 31) % 400)
		return p
	}
	b.Run("ranked", func(b *testing.B) {
		vs := benchViews(n)
		tree := newRankTree(rt.(Ranked))
		tree.build(vs)
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			tree.fix(vs, touch(vs, i))
			routeSink = tree.min()
		}
	})
	b.Run("scan", func(b *testing.B) {
		vs := benchViews(n)
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			touch(vs, i)
			routeSink = rt.Route(RequestView{}, vs, nil)
		}
	})
}

func BenchmarkRouteLeastWork64(b *testing.B)   { benchmarkRoute(b, LeastWork{}, 64) }
func BenchmarkRouteLeastWork1024(b *testing.B) { benchmarkRoute(b, LeastWork{}, 1024) }
func BenchmarkRouteJSQ64(b *testing.B)         { benchmarkRoute(b, JSQ{}, 64) }
func BenchmarkRouteJSQ1024(b *testing.B)       { benchmarkRoute(b, JSQ{}, 1024) }

// TestRankedRouteAllocFree pins the ranked path's per-decision cost at
// zero allocations: a refresh re-ranks in place and the pick is a read.
func TestRankedRouteAllocFree(t *testing.T) {
	vs := benchViews(1024)
	tree := newRankTree(LeastWork{})
	tree.build(vs)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		p := (i * 7919) % len(vs)
		vs[p].OutstandingWork = float64(i % 400)
		tree.fix(vs, p)
		if tree.min() < 0 {
			t.Fatal("empty tree")
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("ranked route allocates %.1f times per decision, want 0", allocs)
	}
}

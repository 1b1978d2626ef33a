package cluster

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// wakeOps is a random sequence of wake-heap operations over a few
// devices, with wake times from a small set so equal times are common.
type wakeOps struct{ Ops [][3]int } // {kind, dev, time}

func (wakeOps) Generate(r *rand.Rand, _ int) reflect.Value {
	var w wakeOps
	for i := 0; i < 80; i++ {
		w.Ops = append(w.Ops, [3]int{r.Intn(4), r.Intn(8), r.Intn(6)})
	}
	return reflect.ValueOf(w)
}

// TestWakeHeapMatchesReference checks the hand-written indexed heap
// against a plain map: after every update, remove, or popDue, the heap
// order and position index hold, and the minimum and popDue's device set
// match the map.
func TestWakeHeapMatchesReference(t *testing.T) {
	prop := func(w wakeOps) bool {
		h := newWakeHeap(8)
		ref := map[int]float64{}
		for _, op := range w.Ops {
			dev, at := op[1], float64(op[2])
			switch op[0] {
			case 0, 1:
				h.update(dev, at)
				ref[dev] = at
			case 2:
				h.remove(dev)
				delete(ref, dev)
			case 3:
				got := h.popDue(at, nil)
				var want []int
				for d, a := range ref {
					if a <= at {
						want = append(want, d)
						delete(ref, d)
					}
				}
				sort.Ints(want)
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Logf("popDue(%v) = %v, want %v", at, got, want)
					return false
				}
			}
			if h.Len() != len(ref) {
				return false
			}
			for i, it := range h.items {
				if h.pos[it.dev] != i || ref[it.dev] != it.at || (i > 0 && h.less(i, (i-1)/2)) {
					return false
				}
			}
			if m, ok := h.min(); ok {
				for _, a := range ref {
					if a < m {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, qc(t, 300)); err != nil {
		t.Error(err)
	}
}

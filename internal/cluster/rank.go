package cluster

// rankTree is a tournament tree over the fleet's router views: leaf p is
// position p of the view slice, and every internal node holds the
// position of the better (Ranked.Less) of its two children, so the root
// is the Ranked router's pick. A view refresh replays one leaf-to-root
// path — O(log n) Less calls instead of a Route scan over every view —
// and membership changes (fail-stop, drain, warm-pool join), which shift
// positions, rebuild it in O(n).
//
// Nodes hold positions and compare live view values, so after several
// views change at once (a sharded collect pass) replaying each changed
// leaf's full path, in any order, restores every node: a node's last
// replay runs after all of its subtree's.
type rankTree struct {
	rk   Ranked
	base int     // leaf p sits at node base+p; base is a power of two
	node []int32 // node[1] is the root; -1 marks padding leaves
}

func newRankTree(rk Ranked) *rankTree { return &rankTree{rk: rk} }

// build re-ranks the whole view slice.
func (t *rankTree) build(vs []DeviceView) {
	base := 1
	for base < len(vs) {
		base *= 2
	}
	t.base = base
	if cap(t.node) < 2*base {
		t.node = make([]int32, 2*base)
	}
	t.node = t.node[:2*base]
	for p := 0; p < base; p++ {
		t.node[base+p] = -1
		if p < len(vs) {
			t.node[base+p] = int32(p)
		}
	}
	for k := base - 1; k >= 1; k-- {
		t.node[k] = t.winner(vs, t.node[2*k], t.node[2*k+1])
	}
}

// fix replays the path from leaf p to the root after view p changed.
func (t *rankTree) fix(vs []DeviceView, p int) {
	for k := (t.base + p) / 2; k >= 1; k /= 2 {
		t.node[k] = t.winner(vs, t.node[2*k], t.node[2*k+1])
	}
}

// min returns the position of the minimum view, or -1 when the views
// are empty.
func (t *rankTree) min() int { return int(t.node[1]) }

func (t *rankTree) winner(vs []DeviceView, a, b int32) int32 {
	switch {
	case a < 0:
		return b
	case b < 0:
		return a
	case t.rk.Less(vs[b], vs[a]):
		return b
	}
	return a
}

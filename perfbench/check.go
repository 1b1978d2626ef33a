package main

// Output check and outcome digest of one fleet run.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"fasttts/internal/cluster"
	"fasttts/internal/core"
	"fasttts/internal/metrics"
)

// checkOutcome verifies one run's outcome against its submitted stream:
// every submitted tag appears exactly once (so served plus shed equals
// submitted), each result keeps its submitted arrival, arrival ≤ start ≤
// finish, every time is finite, and a served request names a real
// device. It returns the first violation.
func checkOutcome(reqs []core.Request, out *cluster.Outcome) error {
	if len(out.Results) != len(reqs) {
		return fmt.Errorf("%d results for %d submitted requests", len(out.Results), len(reqs))
	}
	arrival := make(map[int]float64, len(reqs))
	for _, rq := range reqs {
		arrival[rq.Tag] = rq.Arrival
	}
	seen := make(map[int]bool, len(reqs))
	for _, r := range out.Results {
		at, ok := arrival[r.Tag]
		switch {
		case !ok:
			return fmt.Errorf("tag %d was never submitted", r.Tag)
		case seen[r.Tag]:
			return fmt.Errorf("tag %d appears twice", r.Tag)
		case r.Arrival != at:
			return fmt.Errorf("tag %d: arrival %v, submitted at %v", r.Tag, r.Arrival, at)
		case !finite(r.Arrival) || !finite(r.Start) || !finite(r.Finish) || !finite(r.WallLatency):
			return fmt.Errorf("tag %d: non-finite times (arrival %v start %v finish %v wall %v)",
				r.Tag, r.Arrival, r.Start, r.Finish, r.WallLatency)
		case r.Start < r.Arrival || r.Finish < r.Start:
			return fmt.Errorf("tag %d: arrival %v, start %v, finish %v out of order", r.Tag, r.Arrival, r.Start, r.Finish)
		case !r.Rejected && (r.Device < 0 || r.Device >= len(out.Devices) || r.Result == nil):
			return fmt.Errorf("tag %d: served by device %d of %d", r.Tag, r.Device, len(out.Devices))
		}
		seen[r.Tag] = true
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// digest hashes what a run decided for each request, in result order:
// tag, device, shed flag, the exact bits of start and finish, the
// majority-vote verdict with every finished path's answer, and the
// useful tokens. Equal digests mean bit-identical outcomes.
func digest(out *cluster.Outcome) string {
	h := sha256.New()
	var buf []byte
	for _, r := range out.Results {
		buf = buf[:0]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(r.Tag)))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(r.Device)))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Start))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Finish))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.UsefulTokens))
		flags := byte(0)
		if r.Rejected {
			flags |= 1
		}
		if r.Result != nil {
			if metrics.Top1Correct(r.PathResults()) {
				flags |= 2
			}
			for _, p := range r.Finished {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(p.Answer)))
			}
		}
		buf = append(buf, flags)
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// queueGrowth returns the mean queue delay of the first and the last
// quarter of the served requests, in arrival order. A workload whose
// last quarter waits longer than its first builds a backlog, and its
// sim metrics then depend on the stream length.
func queueGrowth(out *cluster.Outcome) (first, last float64) {
	var served []cluster.Result
	for _, r := range out.Results {
		if !r.Rejected {
			served = append(served, r)
		}
	}
	sort.Slice(served, func(i, j int) bool {
		if served[i].Arrival != served[j].Arrival {
			return served[i].Arrival < served[j].Arrival
		}
		return served[i].Tag < served[j].Tag
	})
	q := len(served) / 4
	if q == 0 {
		return 0, 0
	}
	mean := func(rs []cluster.Result) float64 {
		s := 0.0
		for _, r := range rs {
			s += r.Start - r.Arrival
		}
		return s / float64(len(rs))
	}
	return mean(served[:q]), mean(served[len(served)-q:])
}

// stationary reports whether a workload's queue holds steady: the last
// quarter's mean queue delay is at most twice the first quarter's plus a
// tenth of the SLO (the slack absorbs noise in near-empty queues).
func stationary(first, last, slo float64) bool {
	return last <= 2*first+slo/10
}

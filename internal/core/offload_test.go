package core

import (
	"errors"
	"testing"

	"fasttts/internal/alloc"
	"fasttts/internal/hw"
	"fasttts/internal/search"
)

// TestOffloadChargesSwapTransfers runs the §4.3.2 offload path. On the
// 8 GB RTX 3070 Ti with an 8 MiB KV budget the partitioned split cannot
// hold one sequence per stage, so with AllowOffload the allocator gives
// each model the whole budget while it runs and swaps the other model's
// KV to host memory. Every swap must charge exactly GPU.TransferTime of
// the bytes resident in both caches, and the engines' charges must add
// up to the result's TransferTime.
func TestOffloadChargesSwapTransfers(t *testing.T) {
	pol, err := search.New(search.BeamSearch, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, pol, FastTTSOptions())
	cfg.GPU = hw.RTX3070Ti
	cfg.KVBudgetOverride = 8 << 20
	p := aimeProblem(t, 0)

	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Solve(p); !errors.Is(err, alloc.ErrInfeasible) {
		t.Fatalf("without offload: err = %v, want alloc.ErrInfeasible", err)
	}

	cfg.Opts.AllowOffload = true
	s, err := newSolver(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Step the solver the way stepOnce does (FastTTS re-allocates every
	// iteration), split at the two phases that open with a swap.
	s.begin()
	for !s.done() {
		if err := s.allocate(); err != nil {
			t.Fatal(err)
		}
		if !s.offload {
			t.Fatalf("iteration %d: plan does not offload", s.iter)
		}
		moved := s.gen.Cache.UsedBytes() + s.ver.Eng.Cache.UsedBytes()
		before := s.gen.TransferTime
		ordered, err := s.generationPhase()
		if err != nil {
			t.Fatal(err)
		}
		if want := before + cfg.GPU.TransferTime(float64(moved)); s.gen.TransferTime != want {
			t.Errorf("iteration %d: generation swap of %d bytes left TransferTime %g s, want %g", s.iter, moved, s.gen.TransferTime, want)
		}

		moved = s.gen.Cache.UsedBytes() + s.ver.Eng.Cache.UsedBytes()
		before = s.ver.Eng.TransferTime
		s.verificationPhase(ordered)
		if want := before + cfg.GPU.TransferTime(float64(moved)); s.ver.Eng.TransferTime != want {
			t.Errorf("iteration %d: verification swap of %d bytes left TransferTime %g s, want %g", s.iter, moved, s.ver.Eng.TransferTime, want)
		}

		s.selectAndBranch()
		s.iter++
	}
	res, err := s.result()
	if err != nil {
		t.Fatal(err)
	}
	if want := s.gen.TransferTime + s.ver.Eng.TransferTime; res.TransferTime <= 0 || res.TransferTime != want {
		t.Errorf("result TransferTime %g, want the %g s the swaps charged (> 0)", res.TransferTime, want)
	}

	// The split loop above must be the solver's own: Runner.Solve gives
	// the same result.
	r, err = NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if want.TransferTime != res.TransferTime || want.Latency != res.Latency || want.Iterations != res.Iterations {
		t.Errorf("stepped solve: transfer %g latency %g iterations %d; Runner.Solve: %g %g %d",
			res.TransferTime, res.Latency, res.Iterations, want.TransferTime, want.Latency, want.Iterations)
	}
}

package fasttts

// Public-API contract of the span flight recorder: tracing never
// perturbs a run (every committed golden replays byte-identically with
// a recorder attached), traces themselves are deterministic across the
// fleet engines, and the Perfetto/attribution surfaces work end to end.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
)

// TestGoldenScenarioTracesWithRecorder replays every golden with the
// flight recorder attached. The committed bytes must reproduce exactly:
// tracing observes scheduling, it never perturbs it.
func TestGoldenScenarioTracesWithRecorder(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating goldens")
	}
	for _, info := range Scenarios() {
		for _, target := range []ScenarioTarget{ScenarioServer, ScenarioCluster} {
			info, target := info, target
			t.Run(fmt.Sprintf("%s/%s", info.Name, target), func(t *testing.T) {
				rec := NewRecorder()
				run, err := RunScenario(info.Name, ScenarioOptions{Target: target, Trace: rec})
				if err != nil {
					t.Fatal(err)
				}
				got, err := run.TraceJSONL()
				if err != nil {
					t.Fatal(err)
				}
				want, err := os.ReadFile(goldenPath(info.Name, target))
				if err != nil {
					t.Fatalf("missing golden trace: %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("attaching a recorder changed the golden trace bytes")
				}
				if rec.SpanCount() == 0 {
					t.Fatal("recorder captured nothing")
				}
				if err := rec.Verify(); err != nil {
					t.Fatalf("span lifecycle invariants violated: %v", err)
				}
				if target == ScenarioCluster {
					if run.FleetStats.Attribution == nil {
						t.Fatal("traced fleet run missing FleetStats.Attribution")
					}
					if run.FleetStats.Attribution.Requests != run.Stats.Served {
						t.Fatalf("attributed %d requests, served %d",
							run.FleetStats.Attribution.Requests, run.Stats.Served)
					}
				}
			})
		}
	}
}

// TestRecorderTraceDeterministicAcrossEngines pins the public half of
// the trace-determinism contract: the Perfetto export bytes are
// identical across runs and across Parallelism settings.
func TestRecorderTraceDeterministicAcrossEngines(t *testing.T) {
	export := func(parallelism int) []byte {
		rec := NewRecorder()
		if _, err := RunScenario("fleet-churn", ScenarioOptions{
			Target: ScenarioCluster, Requests: 20, Seed: 7,
			Parallelism: parallelism, Trace: rec,
		}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WritePerfetto(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := export(0)
	for _, p := range []int{4, -1} {
		if !bytes.Equal(ref, export(p)) {
			t.Fatalf("Perfetto export differs between Parallelism=0 and Parallelism=%d", p)
		}
	}
	var doc map[string]any
	if err := json.Unmarshal(ref, &doc); err != nil {
		t.Fatalf("Perfetto export is not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("Perfetto export missing traceEvents")
	}
}

// TestRecorderAttribution exercises the public attribution surface on a
// fleet run with failures and requeues: components must sum to each
// request's wall latency, and the rollup must agree with the fleet
// stats' copy.
func TestRecorderAttribution(t *testing.T) {
	rec := NewRecorder()
	run, err := RunScenario("fleet-churn", ScenarioOptions{
		Target: ScenarioCluster, Requests: 30, Seed: 7, Trace: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	attrs := rec.Attribution()
	if len(attrs) == 0 {
		t.Fatal("no requests attributed")
	}
	byTag := map[int]FleetResult{}
	for _, r := range run.Fleet.Results {
		byTag[r.Tag] = r
	}
	for _, a := range attrs {
		sum := (((a.Queue + a.Service) + a.Reprefill) + a.Straggler) + a.Preemption
		tol := math.Nextafter(math.Abs(a.Wall), math.Inf(1)) - math.Abs(a.Wall)
		if math.Abs(sum-a.Wall) > tol {
			t.Errorf("tag %d: components sum to %v, wall is %v", a.Tag, sum, a.Wall)
		}
		r, ok := byTag[a.Tag]
		if !ok || r.Rejected {
			t.Errorf("tag %d attributed but not served", a.Tag)
			continue
		}
		if a.Wall != r.WallLatency || a.Device != r.Device || a.Requeues != r.Requeues {
			t.Errorf("tag %d: attribution wall/device/requeues %v/%d/%d vs result %v/%d/%d",
				a.Tag, a.Wall, a.Device, a.Requeues, r.WallLatency, r.Device, r.Requeues)
		}
	}
	if got := rec.AttributionSummary(); got != *run.FleetStats.Attribution {
		t.Errorf("AttributionSummary %+v != FleetStats.Attribution %+v",
			got, *run.FleetStats.Attribution)
	}
	if run.FleetStats.Requeues > 0 {
		lost := 0.0
		for _, a := range attrs {
			lost += a.LostWork
		}
		if lost == 0 {
			t.Error("fleet saw requeues but attribution found no lost work")
		}
	}
	// Reset empties the recorder for the next run.
	rec.Reset()
	if rec.SpanCount() != 0 {
		t.Fatalf("SpanCount after Reset = %d", rec.SpanCount())
	}
	// A nil recorder is valid everywhere and reports emptiness.
	var nilRec *Recorder
	if nilRec.SpanCount() != 0 || nilRec.Verify() != nil || len(nilRec.Attribution()) != 0 {
		t.Fatal("nil Recorder must behave as an empty trace")
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"fasttts/internal/cluster"
)

// contract is the part of BENCHMARK.json the tests hold the benchmark to.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks the result line: the output check passed and every metric the
// contract names is printed with its unit.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			o := options{workload: w.Name, seed: 3, seconds: 0.01, trace: trace == "1", scale: 0.02, setupReps: 1, minRuns: 1}
			code := runWith(o, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w.Name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line is not the result: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %s: correct %v, %d of %d failed", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := c.EndToEnd
			if trace == "1" {
				want = c.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestWrappersDoNotPerturb checks that the traced pass's wrappers leave
// every workload's outcome bit-identical.
func TestWrappersDoNotPerturb(t *testing.T) {
	for _, w := range workloads {
		inst, err := w.build(5, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		s := &session{inst: inst}
		plain, err := s.runOnce(hooks{})
		if err != nil {
			t.Fatal(err)
		}
		var tp taps
		wrapped, err := s.runOnce(tp.hooks())
		if err != nil {
			t.Fatal(err)
		}
		if a, b := digest(plain), digest(wrapped); a != b {
			t.Errorf("%s: wrapped digest %s, unwrapped %s", w.name, b, a)
		}
		if len(tp.router) != 1 || tp.router[0].calls == 0 {
			t.Errorf("%s: router wrapper not exercised", w.name)
		}
	}
}

// TestShardedEngineAgrees checks that fleet-dispatch gives the same
// outcome on the sequential engine and on two shards.
func TestShardedEngineAgrees(t *testing.T) {
	inst, err := buildFleetDispatch(7, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	s := &session{inst: inst}
	seq, err := s.runOnce(hooks{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := inst.config(hooks{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 2
	fleet, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := fleet.Run(inst.reqs)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := digest(seq), digest(par); a != b {
		t.Errorf("sequential digest %s, two shards %s", a, b)
	}
}

// TestQueueStationary checks every workload at its benchmark size: the
// last quarter of the stream must not queue longer than the first, so
// the sim metrics do not depend on the stream length. kv-reuse at the
// cache-thrash catalog rate of 0.3 req/s must fail the same check.
func TestQueueStationary(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full size")
	}
	for _, w := range workloads {
		inst, err := w.build(11, 1)
		if err != nil {
			t.Fatal(err)
		}
		out, err := (&session{inst: inst}).runOnce(hooks{})
		if err != nil {
			t.Fatal(err)
		}
		first, last := queueGrowth(out)
		if !stationary(first, last, inst.slo) {
			t.Errorf("%s: queue delay grows from %.3g s in the first quarter to %.3g s in the last", w.name, first, last)
		}
	}
	inst, err := buildKVReuseAt(11, 0.25, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	out, err := (&session{inst: inst}).runOnce(hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if first, last := queueGrowth(out); stationary(first, last, inst.slo) {
		t.Errorf("kv-reuse at 0.3 req/s: queue delay %.3g s → %.3g s passes the stationarity check", first, last)
	}
}

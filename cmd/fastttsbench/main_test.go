package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommittedReportsRoundTrip pins the BENCH_*.json schemas: every
// committed artifact decodes into its report type with no unknown
// field, and re-encoding it through encodeReport reproduces the file
// byte for byte. A renamed, retyped or dropped field fails here before
// it reaches an artifact.
func TestCommittedReportsRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		file   string
		report any
	}{
		{"BENCH_core.json", &perfReport{}},
		{"BENCH_cache.json", &cacheReport{}},
		{"BENCH_metrics.json", &metricsReport{}},
		{"BENCH_strategy.json", &strategyReport{}},
		{"BENCH_trace.json", &traceReport{}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(want))
			dec.DisallowUnknownFields()
			if err := dec.Decode(tc.report); err != nil {
				t.Fatalf("decode: %v", err)
			}
			got, err := encodeReport(tc.report)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("re-encoding differs at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("re-encoding has %d lines, file has %d", len(gl), len(wl))
			}
		})
	}
}

// TestSuiteStdoutIsJSON runs every suite cheap enough for a unit test
// without -out: stdout must hold the report alone, because progress
// lines belong on stderr. os.Stdout is redirected to a file meanwhile,
// so a print that bypasses run's stdout writer fails the test too.
func TestSuiteStdoutIsJSON(t *testing.T) {
	stray, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer stray.Close()
	saved := os.Stdout
	os.Stdout = stray
	defer func() { os.Stdout = saved }()

	for _, args := range [][]string{
		{"-suite", "scenarios", "-requests", "6"},
		{"-suite", "cache"},
		{"-suite", "strategy"},
		{"-suite", "metrics", "-requests", "200"},
		{"-suite", "perf", "-perf-devices", "1,3", "-perf-requests", "60",
			"-perf-routers", "rr,least-work", "-perf-shards", "1,2,4"},
	} {
		t.Run(args[1], func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatalf("run %v: %v\nstderr:\n%s", args, err, stderr.String())
			}
			var report map[string]any
			if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
				t.Fatalf("stdout is not one JSON report: %v\n%s", err, stdout.String())
			}
			if report["schema"] == nil {
				t.Errorf("report has no schema: %s", stdout.String())
			}
			info, err := stray.Stat()
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() != 0 {
				t.Errorf("%d bytes went straight to os.Stdout", info.Size())
			}
		})
	}
}

// TestSuiteGateFailure forces the scenarios gate to fail with an empty
// golden directory: the report must still be written, marked not ok,
// and the run must return the gate error.
func TestSuiteGateFailure(t *testing.T) {
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	err := run([]string{"-suite", "scenarios", "-requests", "6", "-golden", t.TempDir(), "-out", out}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "conformance failed") {
		t.Fatalf("err = %v, want the conformance gate error", err)
	}
	data, err := os.ReadFile(filepath.Join(out, "BENCH_scenarios.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report scenarioReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Cells) == 0 {
		t.Fatal("report has no cells")
	}
	if report.OK || report.Cells[0].Golden != "missing" {
		t.Errorf("ok %v, first verdict %q; want not ok with missing goldens", report.OK, report.Cells[0].Golden)
	}
	if !strings.Contains(stdout.String(), "wrote ") {
		t.Errorf("stdout %q does not name the written report", stdout.String())
	}
}

func TestUnknownSuite(t *testing.T) {
	err := run([]string{"-suite", "nope"}, &bytes.Buffer{}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "scenarios|cache|strategy|metrics|trace|perf") {
		t.Fatalf("err = %v, want the list of suites", err)
	}
}

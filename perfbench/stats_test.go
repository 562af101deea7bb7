package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPercentileSupportedNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{99, 90, false},
		{100, 90, true},
		{20, 50, true},
		{19, 50, false},
		{999, 99, false},
		{1000, 99, true},
	} {
		if got := percentileSupported(c.n, c.p); got != c.want {
			t.Errorf("percentileSupported(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestSummarizeInterpolatesBetweenRanks(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	s := summarize(xs)
	// Linear interpolation between closest ranks: rank 0.9·99 = 89.1.
	if s.N != 100 || s.P50 != 50.5 || math.Abs(s.P90-90.1) > 1e-9 {
		t.Fatalf("got %+v, want n=100 p50=50.5 p90=90.1", s)
	}
	if got := fmtSummary(summarize(xs[:99]), "ms"); !strings.Contains(got, "p90 unsupported") {
		t.Fatalf("99 samples must flag p90: %s", got)
	}
	if got := fmtSummary(s, "ms"); strings.Contains(got, "unsupported") {
		t.Fatalf("100 samples support p90: %s", got)
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{0.5, 0.7, 0.1, 0.9, 1.3, 2.2, 0.4}, 0.4, 1.3},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpreadShareAndBoundVerdict(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// (8.25 − 2.75) / 5.5
	if got := spreadShare(xs); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spreadShare = %g, want 1", got)
	}
	if got := spreadShare([]float64{7, 7, 7, 7}); got != 0 {
		t.Fatalf("spread of identical values = %g, want 0", got)
	}
	for _, c := range []struct {
		spread, bound float64
		want          string
	}{
		{0.01, 0.1, "steady"},
		{0.1 / 3, 0.1, "steady"},
		{0.05, 0.1, "within-bound"},
		{0.1, 0.1, "within-bound"},
		{0.11, 0.1, "TOO-WIDE"},
	} {
		if got := boundVerdict(c.spread, c.bound); got != c.want {
			t.Errorf("boundVerdict(%g, %g) = %s, want %s", c.spread, c.bound, got, c.want)
		}
	}
}

func TestLastJSONReadsTheFinalLine(t *testing.T) {
	out := []byte("workload x\n  table line\n{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}\n\n")
	r, err := lastJSON(out)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted != 3 || r.Metrics["setup_s"].Value != 0.5 {
		t.Fatalf("got %+v", r)
	}
	if _, err := lastJSON([]byte("no result\n")); err == nil {
		t.Fatal("a run without a result line must not parse")
	}
}

func TestLoadBenchDefMatchesRunners(t *testing.T) {
	dir := t.TempDir()
	write := func(body string) string {
		p := filepath.Join(dir, "b.json")
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	def, err := loadBenchDef(write(`{"workloads": [{"name": "external-uniform", "why": "a"}, {"name": "resident-gaussian", "why": "b"}, {"name": "serve-mixed", "why": "c"}],
		"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}], "per_layer": [{"name": "cpu.gc", "unit": "share", "better": "lower"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if u, ok := def.unit("cpu.gc"); !ok || u != "share" {
		t.Fatalf("unit(cpu.gc) = %q, %v", u, ok)
	}
	if w, ok := def.why("serve-mixed"); !ok || w != "c" {
		t.Fatalf("why(serve-mixed) = %q, %v", w, ok)
	}
	if _, ok := def.unit("nope"); ok {
		t.Fatal("an unlisted metric has no unit")
	}
	if _, err := loadBenchDef(write(`{"workloads": [{"name": "external-uniform"}, {"name": "resident-gaussian"}, {"name": "other"}]}`)); err == nil {
		t.Fatal("a workload perfbench does not run must be refused")
	}
	if _, err := loadBenchDef(write(`{"workloads": [{"name": "external-uniform"}]}`)); err == nil {
		t.Fatal("a workload perfbench runs but the file leaves out must be refused")
	}
}

// Command perfbench is the repository's benchmark: it runs one workload
// against the system through its public entry points, checks every
// answer, and prints each metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 they are its per-layer metrics, taken in a separate
// traced run that also writes its spans and a CPU profile under -out.
//
// Usage (run.sh builds this command and maxrsd from source first):
//
//	bash perfbench/run.sh --workload external-uniform --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --spread --workload resident-gaussian --runs 10 --seed 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runCtx carries one run's settings and collects its outcome.
type runCtx struct {
	name    string
	def     *benchDef
	pprof   string // the Go toolchain's pprof tool (traced runs)
	seed    int64
	seconds float64
	traced  bool
	maxrsd  string // path of the maxrsd binary (serve-mixed)
	workdir string // scratch space inside the checkout
	outDir  string // where the traced run writes spans and the profile

	tracer    *Tracer
	attempted int64
	failed    int64
	correct   bool
	metrics   map[string]metric
	notes     []string // human-readable table lines
}

// set records a listed metric; NaN and ±Inf are reported as 0 so the
// output stays valid JSON (the table notes which figures were
// unsupported).
func (rc *runCtx) set(name string, v float64) {
	unit, ok := rc.def.unit(name)
	if !ok {
		panic("perfbench: unlisted metric " + name) // a bug in this program
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		rc.notef("warning: %s was not measurable (%v); reported as 0", name, v)
		v = 0
	}
	rc.metrics[name] = metric{Value: v, Unit: unit}
	rc.notef("%-34s %14.6g %s", name, v, unit)
}

// notef appends one line to the human-readable table.
func (rc *runCtx) notef(format string, args ...any) {
	rc.notes = append(rc.notes, fmt.Sprintf(format, args...))
}

// fail records a failed op or a failed check: it counts against the
// attempted ops and marks the run incorrect.
func (rc *runCtx) fail(format string, args ...any) {
	rc.failed++
	rc.correct = false
	if rc.failed <= 20 {
		rc.notef("FAILED: "+format, args...)
	}
}

// check marks the run incorrect without counting an op (set-up and
// teardown checks, which are not ops).
func (rc *runCtx) check(ok bool, format string, args ...any) {
	if !ok {
		rc.correct = false
		rc.notef("CHECK FAILED: "+format, args...)
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run, as named in BENCHMARK.json, or all to run each in turn")
		seed    = flag.Int64("seed", 1, fmt.Sprintf("workload seed: the same seed gives the same inputs (held-out seed for confirming a claim: %d)", heldOutSeed))
		seconds = flag.Float64("seconds", 20, "measurement window per timed loop, in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		maxrsd  = flag.String("maxrsd", "", "maxrsd binary built from the same commit (serve-mixed)")
		pprofT  = flag.String("pprof", "", "the Go toolchain's pprof tool, which reads the traced run's CPU profile")
		workdir = flag.String("workdir", ".bench_build/work", "scratch directory for on-disk engines and the server")
		outDir  = flag.String("out", ".bench_build/traces", "directory the traced run writes spans and the CPU profile to")
		spread  = flag.Bool("spread", false, "run the workload -runs times with seeds seed, seed+1, … and report each end-to-end metric's spread against its bound")
		runs    = flag.Int("runs", 10, "runs for -spread")
		bench   = flag.String("benchmark", "BENCHMARK.json", "the benchmark definition: workloads, metrics, units and bounds")
	)
	flag.Parse()
	def, err := loadBenchDef(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	child := []string{"-maxrsd", *maxrsd, "-pprof", *pprofT, "-workdir", *workdir, "-out", *outDir, "-benchmark", *bench}
	if *name == "all" {
		if err := runAll(def, *seed, *seconds, *trace, child); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	why, ok := def.why(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(def.workloadNames(), ", "))
		os.Exit(2)
	}
	if *spread {
		if err := runSpread(def, *name, *seed, *runs, *seconds, child); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rc := &runCtx{
		name: *name, def: def, pprof: *pprofT, seed: *seed, seconds: *seconds, traced: *trace == 1,
		maxrsd: *maxrsd, workdir: *workdir, outDir: *outDir,
		correct: true, metrics: map[string]metric{},
	}
	if rc.traced {
		rc.tracer = newTracer()
		if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("workload %s  seed %d  seconds %g  trace %d\n", rc.name, rc.seed, rc.seconds, *trace)
	fmt.Printf("  why: %s\n", why)
	fmt.Printf("  unmeasured: %s\n", unmeasured)
	err = runners[rc.name](rc)
	for _, l := range rc.notes {
		fmt.Println("  " + l)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rc.traced {
		path := filepath.Join(rc.outDir, fmt.Sprintf("%s-seed%d.spans.json", rc.name, rc.seed))
		if err := rc.tracer.WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		for _, l := range fmtLayerSelf(rc.tracer.Spans()) {
			fmt.Println("  " + l)
		}
		fmt.Printf("  spans: %s\n", path)
	}
	want := def.EndToEnd
	if rc.traced {
		want = def.PerLayer
	}
	out := result{Correct: rc.correct && rc.failed == 0, Attempted: rc.attempted, Failed: rc.failed, Metrics: map[string]metric{}}
	for _, m := range want {
		v, ok := rc.metrics[m.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not produce metric %s\n", rc.name, m.Name)
			os.Exit(1)
		}
		out.Metrics[m.Name] = v
	}
	if out.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no op was attempted")
		os.Exit(1)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// runners map each workload of BENCHMARK.json to the function that runs
// it. The workloads each make a different layer the one that blocks the
// result, so a change to one layer shows on the workload it should move
// and stays flat on the others. Each is a closed loop: a client sends its
// next request only after the previous reply, with at most two clients
// (the machine's core count) driven from this one process. Names, the
// reason each workload is in the benchmark, and every metric's name and
// unit are read from BENCHMARK.json.
var runners = map[string]func(*runCtx) error{
	"external-uniform":  func(rc *runCtx) error { return runLibrary(rc, externalUniform) },
	"resident-gaussian": func(rc *runCtx) error { return runLibrary(rc, residentGaussian) },
	"serve-mixed":       runServe,
}

// unmeasured names the opt-in paths no workload runs, and why; every run
// prints it.
const unmeasured = "sharding and distributed execution (Options.Shards, Options.Dist), the delta block codec (CodecDelta) " +
	"and the cost-model planner (AlgorithmAuto) are off by default and may be deleted; a workload for one of them is its own later benchmark change"

// heldOutSeed is kept out of tuning: a gain claimed on the usual seeds
// must also hold with -seed heldOutSeed.
const heldOutSeed = 1009

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchDef is the part of BENCHMARK.json perfbench reads: the workloads
// with their reasons, the end-to-end metrics every untraced run reports,
// and the per-layer metrics every traced run reports.
type benchDef struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []metricDef                  `json:"end_to_end"`
	PerLayer  []metricDef                  `json:"per_layer"`
}

// loadBenchDef reads BENCHMARK.json and checks that perfbench runs every
// workload it lists and nothing else.
func loadBenchDef(path string) (*benchDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchDef
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(def.Workloads) != len(runners) {
		return nil, fmt.Errorf("%s lists %d workloads, perfbench runs %d", path, len(def.Workloads), len(runners))
	}
	for _, w := range def.Workloads {
		if runners[w.Name] == nil {
			return nil, fmt.Errorf("%s: perfbench has no workload %q", path, w.Name)
		}
	}
	return &def, nil
}

// unit returns the unit of a listed metric.
func (d *benchDef) unit(name string) (string, bool) {
	for _, m := range append(append([]metricDef(nil), d.EndToEnd...), d.PerLayer...) {
		if m.Name == name {
			return m.Unit, true
		}
	}
	return "", false
}

// why returns the reason a workload is in the benchmark.
func (d *benchDef) why(name string) (string, bool) {
	for _, w := range d.Workloads {
		if w.Name == name {
			return w.Why, true
		}
	}
	return "", false
}

func (d *benchDef) workloadNames() []string {
	out := make([]string, len(d.Workloads))
	for i, w := range d.Workloads {
		out[i] = w.Name
	}
	return out
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// lastJSON returns the result on the last line of a run's output.
func lastJSON(out []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			last = l
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return result{}, fmt.Errorf("last output line is not a result: %q", last)
	}
	return r, nil
}

// runChild runs this binary on one workload and returns its output and
// result.
func runChild(name string, seed int64, seconds float64, trace int, child []string) ([]byte, result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, result{}, err
	}
	args := append([]string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}, child...)
	out, err := exec.Command(self, args...).Output()
	if err != nil {
		return out, result{}, fmt.Errorf("%s with seed %d: %w\n%s", name, seed, err, out)
	}
	r, err := lastJSON(out)
	if err != nil {
		return out, result{}, fmt.Errorf("%s with seed %d: %w", name, seed, err)
	}
	if !r.Correct || r.Failed != 0 {
		return out, r, fmt.Errorf("%s with seed %d: correct=%v, %d of %d ops failed\n%s", name, seed, r.Correct, r.Failed, r.Attempted, out)
	}
	return out, r, nil
}

// runAll runs every workload in turn and prints each one's table.
func runAll(def *benchDef, seed int64, seconds float64, trace int, child []string) error {
	for _, w := range def.Workloads {
		out, _, err := runChild(w.Name, seed, seconds, trace, child)
		if err != nil {
			return err
		}
		if _, err := os.Stdout.Write(out); err != nil {
			return err
		}
	}
	return nil
}

// runSpread runs the workload with seeds seed..seed+runs-1 (this binary,
// one run at a time) and reports each end-to-end metric's interquartile
// spread as a share of its median against the bound in BENCHMARK.json.
// It fails when a run is incorrect or a spread exceeds its bound.
func runSpread(def *benchDef, name string, seed int64, runs int, seconds float64, child []string) error {
	values := map[string][]float64{}
	for i := 0; i < runs; i++ {
		s := seed + int64(i)
		out, r, err := runChild(name, s, seconds, 0, child)
		if err != nil {
			return err
		}
		var line []string
		for _, m := range def.EndToEnd {
			v := r.Metrics[m.Name].Value
			values[m.Name] = append(values[m.Name], v)
			line = append(line, fmt.Sprintf("%s=%.5g", m.Name, v))
		}
		// The host's steal during the run explains an outlying run.
		if _, rest, ok := bytes.Cut(out, []byte("host steal: ")); ok {
			if pct, _, ok := bytes.Cut(rest, []byte("%")); ok {
				line = append(line, "steal="+string(pct)+"%")
			}
		}
		fmt.Printf("seed %d: %s\n", s, strings.Join(line, " "))
	}
	wide := 0
	for _, m := range def.EndToEnd {
		vs := values[m.Name]
		q1, q3 := quartiles(vs)
		sp := spreadShare(vs)
		verdict := boundVerdict(sp, m.Bound)
		if verdict == "TOO-WIDE" {
			wide++
		}
		fmt.Printf("%-22s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%% of median, bound %4.1f%%: %s\n",
			m.Name, median(vs), q1, q3, 100*sp, 100*m.Bound, verdict)
	}
	if wide > 0 {
		return fmt.Errorf("%d metric spreads exceed their bounds on %s", wide, name)
	}
	return nil
}

package main

import (
	"errors"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// This file reduces a runtime/pprof CPU profile to self-time shares per
// bucket, bucketed by the leaf frame's package. The Go toolchain's pprof
// tool turns the profile into per-stack text, which is all that is read.

// cpuBuckets lists the reported buckets in output order.
var cpuBuckets = []string{"sweep", "core", "extsort", "em", "rec", "sort", "gc", "syscall", "other"}

// leafBucket names the bucket of a sample from its stack (leaf first).
func leafBucket(stack []string) string {
	for _, fn := range stack {
		for _, g := range []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcDrain", "runtime.markroot"} {
			if strings.HasPrefix(fn, g) {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		if p := funcPackage(fn); p == "syscall" || strings.HasSuffix(p, "/syscall") {
			return "syscall"
		}
	}
	if len(stack) == 0 {
		return "other"
	}
	switch p := funcPackage(stack[0]); p {
	case "maxrs/internal/sweep":
		return "sweep"
	case "maxrs/internal/core":
		return "core"
	case "maxrs/internal/extsort":
		return "extsort"
	case "maxrs/internal/em", "maxrs/internal/codec":
		return "em"
	case "maxrs/internal/rec":
		return "rec"
	case "sort", "slices", "internal/reflectlite": // reflectlite: sort.Slice's swapper
		return "sort"
	}
	return "other"
}

// funcPackage returns the import path of a symbol name such as
// "maxrs/internal/sweep.(*segTree).Update". Type arguments of a generic
// symbol are cut first: they hold import paths of their own.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuShares reads the text of `go tool pprof -traces` on a CPU profile
// — one block per distinct stack, separated by dashed lines, whose first
// line holds the stack's sampled time and its leaf function and whose
// next lines hold the callers — and returns each bucket's share of the
// sampled CPU time, the total sampled time, and the share of each leaf
// package inside the "other" bucket.
func cpuShares(traces string) (map[string]float64, time.Duration, map[string]float64, error) {
	byBucket := map[string]time.Duration{}
	otherPkg := map[string]time.Duration{}
	var total, val time.Duration
	var stack []string
	flush := func() {
		if stack == nil {
			return
		}
		b := leafBucket(stack)
		byBucket[b] += val
		if b == "other" {
			otherPkg[funcPackage(stack[0])] += val
		}
		total += val
		stack = nil
	}
	inTrace := false
	for _, line := range strings.Split(traces, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTrace = true
			continue
		}
		f := strings.Fields(strings.TrimSuffix(line, " (inline)"))
		if !inTrace || len(f) == 0 {
			continue // the header before the first trace
		}
		if stack == nil {
			d, err := time.ParseDuration(f[0])
			if err != nil || len(f) < 2 {
				return nil, 0, nil, fmt.Errorf("cpu profile traces: unexpected line %q", line)
			}
			val = d
			f = f[1:]
		}
		stack = append(stack, strings.Join(f, " "))
	}
	flush()
	if total == 0 {
		return nil, 0, nil, errors.New("cpu profile traces: no samples")
	}
	share := func(v time.Duration) float64 { return float64(v) / float64(total) }
	out := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		out[b] = share(byBucket[b])
	}
	other := make(map[string]float64, len(otherPkg))
	for p, v := range otherPkg {
		other[p] = share(v)
	}
	return out, total, other, nil
}

// profileTraces runs the pprof tool on a CPU profile and returns its
// per-stack text.
func profileTraces(tool, path string) (string, error) {
	if tool == "" {
		return "", errors.New("reading the CPU profile needs -pprof")
	}
	out, err := exec.Command(tool, "-traces", path).Output()
	if err != nil {
		return "", fmt.Errorf("%s -traces %s: %w", tool, path, err)
	}
	return string(out), nil
}

package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []Span{
		{Name: "op.maxrs", Start: 0, End: 100, Parent: -1},
		{Name: "maxrs.maxrs", Start: 10, End: 60, Parent: 0},
		// Two concurrent children overlapping each other: their union
		// [20, 50) counts once.
		{Name: "core.solve", Start: 20, End: 40, Parent: 1},
		{Name: "core.solve", Start: 30, End: 50, Parent: 1},
		// A child running past its parent's end is clipped to the parent.
		{Name: "em.read", Start: 90, End: 120, Parent: 0},
		// An unclosed span counts nothing and covers nothing.
		{Name: "sweep.slab", Start: 95, End: -1, Parent: 0},
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 50 - 30, 20, 20, 30, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	layers := layerSelf(spans)
	for name, w := range map[string]int64{"op": 40, "maxrs": 20, "core": 40, "em": 30, "sweep": 0} {
		if layers[name] != w {
			t.Errorf("layer %s: self %d, want %d", name, layers[name], w)
		}
	}
}

func TestCoveredUnionsDisjointAndNestedIntervals(t *testing.T) {
	ivs := [][2]int64{{5, 10}, {0, 3}, {6, 8}, {9, 12}, {20, 30}}
	// Within [1, 25): [1,3) + [5,12) + [20,25) = 2 + 7 + 5.
	if got := covered(1, 25, ivs); got != 14 {
		t.Fatalf("covered = %d, want 14", got)
	}
	if got := covered(0, 10, nil); got != 0 {
		t.Fatalf("covered of nothing = %d", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	id := tr.Begin(1, -1, "op.x")
	tr.End(id)
	if id != -1 || tr.Spans() != nil {
		t.Fatal("a nil tracer must be a no-op")
	}
	tr = newTracer()
	root := tr.Begin(7, -1, "op.x")
	child := tr.Begin(7, root, "maxrs.x")
	tr.End(child)
	tr.End(root)
	s := tr.Spans()
	if len(s) != 2 || s[1].Parent != root || s[1].Op != 7 || s[0].End < s[1].End {
		t.Fatalf("spans = %+v", s)
	}
}

func TestLeafBucket(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"maxrs/internal/sweep.(*segTree).Update", "maxrs/internal/sweep.Slab"}, "sweep"},
		{[]string{"sort.insertionSort_func", "maxrs/internal/sweep.Slab"}, "sort"},
		{[]string{"slices.pdqsortCmpFunc[...]"}, "sort"},
		{[]string{"internal/reflectlite.Swapper.func9", "sort.insertionSort_func"}, "sort"},
		{[]string{"maxrs/internal/extsort.sortAndSpill[go.shape.struct { R maxrs/internal/rec.WRect; Top bool }]"}, "extsort"},
		{[]string{"maxrs/internal/extsort.(*RunBuilder[go.shape.float64]).Add"}, "extsort"},
		{[]string{"maxrs/internal/codec.decode", "maxrs/internal/em.(*Disk).ReadBlock"}, "em"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.pread", "os.(*File).ReadAt"}, "syscall"},
		{[]string{"runtime.memmove", "maxrs/internal/core.(*task).run"}, "other"},
		{nil, "other"},
	} {
		if got := leafBucket(c.stack); got != c.want {
			t.Errorf("leafBucket(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestCPUSharesReadsPprofTraces(t *testing.T) {
	traces := `File: perfbench
Type: cpu
Duration: 1.12s, Total samples = 100ms (8.93%)
-----------+-------------------------------------------------------
      30ms   maxrs/internal/sweep.Slab
             main.main
-----------+-------------------------------------------------------
      60ms   sort.insertionSort_func (inline)
             maxrs/internal/sweep.Slab
-----------+-------------------------------------------------------
      10ms   runtime.memmove
             maxrs/internal/core.(*task).run
-----------+-------------------------------------------------------
`
	shares, total, other, err := cpuShares(traces)
	if err != nil {
		t.Fatal(err)
	}
	if total != 100*time.Millisecond || shares["sweep"] != 0.3 || shares["sort"] != 0.6 || shares["other"] != 0.1 || other["runtime"] != 0.1 {
		t.Fatalf("total %v, shares %v, other %v", total, shares, other)
	}
	if _, _, _, err := cpuShares("-----------+---\nnot a sample line\n"); err == nil {
		t.Fatal("a trace without a sampled time must not parse")
	}
	if _, _, _, err := cpuShares("File: x\n"); err == nil {
		t.Fatal("a profile without samples must not parse")
	}
}

package extsort

import (
	"testing"

	"maxrs/internal/radix"
	"maxrs/internal/rec"
	"maxrs/internal/workload"
)

// runOfEvents returns one full run buffer of piece events — the records a
// 1 MiB memory holds — in the order a producer adds them (each
// rectangle's bottom, then its top).
func runOfEvents() []rec.PieceEvent {
	perRun := (1 << 20) / rec.PieceEventCodec{}.Size()
	objs := workload.Gaussian(1, perRun/2, 1e6)
	events := make([]rec.PieceEvent, 0, perRun)
	for _, o := range objs {
		bottom, top := rec.PieceEventsOf(rec.FromObject(rec.FromGeom(o), 20000, 20000))
		events = append(events, bottom, top)
	}
	return events
}

// runOfEdges returns one 320 KiB run of edge values: each rectangle's x1,
// x2, x1, x2, as the fused producer adds them.
func runOfEdges() []float64 {
	perRun := (320 << 10) / rec.Float64Codec{}.Size()
	objs := workload.Gaussian(1, perRun/4, 1e6)
	edges := make([]float64, 0, perRun)
	for _, o := range objs {
		r := rec.FromObject(rec.FromGeom(o), 20000, 20000)
		edges = append(edges, r.X1, r.X2, r.X1, r.X2)
	}
	return edges
}

// benchSort times sortRun on a fresh copy of in per iteration.
func benchSort[T any](b *testing.B, in []T, sortRun func([]T)) {
	buf := make([]T, len(in))
	b.ReportAllocs()
	for b.Loop() {
		copy(buf, in)
		sortRun(buf)
	}
}

// BenchmarkStableSort sorts a run of piece events by sweep y through the
// comparator path.
func BenchmarkStableSort(b *testing.B) {
	benchSort(b, runOfEvents(), byLess(func(a, b rec.PieceEvent) bool { return a.Y() < b.Y() }))
}

// BenchmarkSortByKey sorts the same run by the same order through the
// radix kernel, as keyed run formation does.
func BenchmarkSortByKey(b *testing.B) {
	benchSort(b, runOfEvents(), byKey(rec.PieceEvent.Y))
}

// BenchmarkSortEdgesByKey sorts a run of edge values through the radix
// kernel, as the fused edge run formation does.
func BenchmarkSortEdgesByKey(b *testing.B) {
	benchSort(b, runOfEdges(), func(buf []float64) {
		radix.SortByKey(buf, func(v float64) float64 { return v })
	})
}

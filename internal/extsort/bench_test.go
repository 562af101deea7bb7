package extsort

import (
	"testing"

	"maxrs/internal/rec"
	"maxrs/internal/workload"
)

// BenchmarkStableSort sorts one full run buffer of piece events — the
// records a 1 MiB memory holds — by sweep y, in the order a producer adds
// them (each rectangle's bottom, then its top), as sortAndSpill does.
func BenchmarkStableSort(b *testing.B) {
	perRun := (1 << 20) / rec.PieceEventCodec{}.Size()
	objs := workload.Gaussian(1, perRun/2, 1e6)
	events := make([]rec.PieceEvent, 0, perRun)
	for _, o := range objs {
		bottom, top := rec.PieceEventsOf(rec.FromObject(rec.FromGeom(o), 20000, 20000))
		events = append(events, bottom, top)
	}
	less := func(a, b rec.PieceEvent) bool { return a.Y() < b.Y() }
	buf := make([]rec.PieceEvent, len(events))
	b.ReportAllocs()
	for b.Loop() {
		copy(buf, events)
		StableSort(buf, less)
	}
}

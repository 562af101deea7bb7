package sweep

import (
	"testing"

	"maxrs/internal/rec"
	"maxrs/internal/workload"
)

// BenchmarkSlab sweeps the 10k rectangles (20k events) of 10k Gaussian
// objects at a 20000×20000 query over a 10⁶ space: the base case of a
// resident query on the paper's Gaussian data.
func BenchmarkSlab(b *testing.B) {
	objs := workload.Gaussian(1, 10000, 1e6)
	rects := make([]rec.WRect, len(objs))
	for i, o := range objs {
		rects[i] = rec.FromObject(rec.FromGeom(o), 20000, 20000)
	}
	slab := fullSlab()
	b.ReportAllocs()
	for b.Loop() {
		Slab(rects, slab)
	}
}

package sweep

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"maxrs/internal/geom"
	"maxrs/internal/rec"
)

// goldenRects is a tie-heavy grid: x and y edges repeat across many
// rectangles (so the event sort and the per-y update order decide the
// floating-point addition order in every cell), and the weights are
// non-dyadic, mixed-sign values, so a reordered addition changes bits.
func goldenRects() []rec.WRect {
	var rs []rec.WRect
	for i := 0; i < 24; i++ {
		for j := 0; j < 24; j++ {
			x := float64(i % 8)
			y := float64(j%6) + float64(i%3)/2
			w := 0.1 + float64((i*7+j*13)%11)/3
			if (i+2*j)%5 == 0 {
				w = -w / 7
			}
			rs = append(rs, rec.WRect{
				X1: x, X2: x + float64(1+(i+j)%4),
				Y1: y, Y2: y + float64(1+(i*j)%3),
				W: w,
			})
		}
	}
	return rs
}

// slabChecksum hashes the exact float bits of every tuple field.
func slabChecksum(ts []rec.Tuple) uint64 {
	h := fnv.New64a()
	var b []byte
	for _, t := range ts {
		for _, f := range [...]float64{t.Y, t.X1, t.X2, t.Sum} {
			b = binary.LittleEndian.AppendUint64(b[:0], math.Float64bits(f))
			h.Write(b)
		}
	}
	return h.Sum64()
}

// TestSlabGoldenBits pins Slab's output bit for bit. The checksum was
// computed with the original sort.Slice-based sweep; any change to the
// event order among equal keys, to the cell resolution or to the segment
// tree's shape re-associates float additions and breaks it. Every prefix
// of the grid in steps of 8 is swept unclipped and clipped to two finite
// slabs, so the checksum covers many distinct tie patterns.
func TestSlabGoldenBits(t *testing.T) {
	const wantTuples, wantSum = 3364, uint64(0xcd3e7fe2b2168942)
	rects := goldenRects()
	slabs := []geom.Interval{fullSlab(), {Lo: 2.5, Hi: 6}, {Lo: -1, Hi: 3.25}}
	var all []rec.Tuple
	for k := 8; k <= len(rects); k += 8 {
		for _, slab := range slabs {
			all = append(all, Slab(rects[:k], slab)...)
		}
	}
	if got := slabChecksum(all); len(all) != wantTuples || got != wantSum {
		t.Errorf("%d tuples, checksum %#x; want %d, %#x", len(all), got, wantTuples, wantSum)
	}
}

package main

import (
	"math"
	"math/rand"

	"maxrs"
	"maxrs/internal/geom"
)

// extent is the side of the square data space [0, extent]², the paper's
// normalized 1M × 1M (Table 3).
const extent = 1e6

// shape is one query rectangle size (for MaxCRS, w is the diameter).
type shape struct{ w, h float64 }

// uniformObjects returns n unit-weight objects uniform over the space.
func uniformObjects(r *rand.Rand, n int) []maxrs.Object {
	objs := make([]maxrs.Object, n)
	for i := range objs {
		objs[i] = maxrs.Object{X: r.Float64() * extent, Y: r.Float64() * extent, Weight: 1}
	}
	return objs
}

// gaussianObjects returns n unit-weight objects from an isotropic
// Gaussian centred in the space with σ = extent/8, clamped to it (the
// paper's Gaussian synthetic data).
func gaussianObjects(r *rand.Rand, n int) []maxrs.Object {
	objs := make([]maxrs.Object, n)
	clamp := func(v float64) float64 { return math.Min(math.Max(v, 0), math.Nextafter(extent, 0)) }
	for i := range objs {
		objs[i] = maxrs.Object{
			X:      clamp(extent/2 + r.NormFloat64()*extent/8),
			Y:      clamp(extent/2 + r.NormFloat64()*extent/8),
			Weight: 1,
		}
	}
	return objs
}

// dyadicWeights are exact binary fractions: any sum of them is exact in
// float64 whatever the summation order, so scores compare exactly.
var dyadicWeights = []float64{0.25, 0.5, 1, 2, 4}

// dyadicObject returns one object at (x, y) with a dyadic weight.
func dyadicObject(r *rand.Rand, x, y float64) maxrs.Object {
	return maxrs.Object{X: x, Y: y, Weight: dyadicWeights[r.Intn(len(dyadicWeights))]}
}

// hotspotObjects returns n objects with dyadic weights: a tenth in a
// Gaussian hotspot (σ = extent/50) at a seeded place, the rest uniform.
// The hotspot makes the optimum pronounced, so inserts far from it
// cannot reach its score and the delta layer can keep the cached base
// answer; inserts near it force a re-solve.
func hotspotObjects(r *rand.Rand, n int) []maxrs.Object {
	cx, cy := extent*(0.3+0.4*r.Float64()), extent*(0.3+0.4*r.Float64())
	objs := make([]maxrs.Object, n)
	for i := range objs {
		x, y := r.Float64()*extent, r.Float64()*extent
		if i%10 == 0 {
			x = math.Min(math.Max(cx+r.NormFloat64()*extent/50, 0), extent)
			y = math.Min(math.Max(cy+r.NormFloat64()*extent/50, 0), extent)
		}
		objs[i] = dyadicObject(r, x, y)
	}
	return objs
}

// jitterShapes scales each base shape by a seeded factor in [1, 1.01),
// so every seed queries its own sizes at nearly the same cost.
func jitterShapes(r *rand.Rand, base []shape) []shape {
	out := make([]shape, len(base))
	for i, s := range base {
		f := 1 + 0.01*r.Float64()
		out[i] = shape{w: math.Round(s.w*f*1000) / 1000, h: math.Round(s.h*f*1000) / 1000}
	}
	return out
}

// insertBatch returns a batch of n dyadic objects either near the given
// optimum (inside its w×h neighbourhood, which forces a re-solve) or far
// from it (at least a quarter of the space away in y, so every inserted
// rectangle misses the optimal strip and the delta's influence bound can
// let the cached base answer stand).
func insertBatch(r *rand.Rand, n int, opt maxrs.Point, s shape, near bool) []maxrs.Object {
	objs := make([]maxrs.Object, n)
	for i := range objs {
		var x, y float64
		if near {
			x = opt.X + (r.Float64()-0.5)*s.w
			y = opt.Y + (r.Float64()-0.5)*s.h
		} else {
			x = r.Float64() * extent
			for y = r.Float64() * extent; math.Abs(y-opt.Y) < extent/4; y = r.Float64() * extent {
			}
		}
		x = math.Min(math.Max(x, 0), extent)
		y = math.Min(math.Max(y, 0), extent)
		objs[i] = dyadicObject(r, x, y)
	}
	return objs
}

// toGeom converts objects for the in-memory oracle.
func toGeom(objs []maxrs.Object) []geom.Object {
	out := make([]geom.Object, len(objs))
	for i, o := range objs {
		out[i] = geom.Object{Point: geom.Point{X: o.X, Y: o.Y}, W: o.Weight}
	}
	return out
}

// Package sweep implements the optimal in-memory plane-sweep algorithm for
// the rectangle-intersection (max location-weight) problem of Imai–Asano
// [11] and Nandy–Bhattacharya [14], as reviewed in §4 of the paper. It is
// used three ways:
//
//   - as the base case of ExactMaxRS, producing the slab file of an
//     in-memory sub-problem (§5.2.4, Algorithm 2 line 9);
//   - as the reference exact MaxRS solver for tests and small inputs;
//   - as the sweep engine the external baselines emulate.
//
// The sweep moves a horizontal line bottom-to-top over the rectangles'
// horizontal edges. A segment tree over the elementary x-intervals between
// consecutive vertical edges maintains the location-weight of every cell;
// at each distinct event y it reports a maximal x-interval of maximum
// weight, which becomes one slab-file tuple (Definition 6).
package sweep

import (
	"math"
	"slices"

	"maxrs/internal/geom"
	"maxrs/internal/radix"
	"maxrs/internal/rec"
)

// Slab computes the slab file for the given rectangles within the slab
// whose x-range is slabX: one tuple per distinct horizontal-edge y, in
// ascending y order. Rectangle x-ranges are clipped to the slab;
// rectangles that do not intersect the slab are ignored. The tuple at y
// describes the strip from y up to the next event (Definition 6): its
// interval is a maximal run of cells attaining the strip's maximum
// location-weight, and its Sum is that maximum.
func Slab(rects []rec.WRect, slabX geom.Interval) []rec.Tuple {
	if slabX.Empty() {
		return nil
	}
	// Each kept rectangle i contributes events 2i (bottom) and 2i+1 (top)
	// and the vertical edges xs[2+2i] (x1) and xs[3+2i] (x2), clipped.
	xs := make([]float64, 0, 2*len(rects)+2)
	xs = append(xs, slabX.Lo, slabX.Hi)
	evs := make([]event, 0, 2*len(rects))
	for _, r := range rects {
		x1 := math.Max(r.X1, slabX.Lo)
		x2 := math.Min(r.X2, slabX.Hi)
		if x1 >= x2 || r.Y1 >= r.Y2 {
			continue
		}
		evs = append(evs,
			event{y: r.Y1, w: r.W},
			event{y: r.Y2, w: -r.W, top: true})
		xs = append(xs, x1, x2)
	}
	if len(evs) == 0 {
		return nil
	}
	// The cell boundaries are the distinct edges in ascending order, and an
	// edge's cell index is its rank among them: one stable sort of the
	// edges yields both, keeping the first edge in input order of each
	// class of equal values.
	bounds := make([]float64, 0, len(xs))
	radix.Ascending(xs, func(p int) {
		if len(bounds) == 0 || xs[p] != bounds[len(bounds)-1] {
			bounds = append(bounds, xs[p])
		}
		if p < 2 {
			return
		}
		c, e := len(bounds)-1, evs[(p-2)&^1:]
		if p%2 == 0 {
			e[0].l, e[1].l = c, c
		} else {
			e[0].r, e[1].r = c, c
		}
	})
	nCells := len(bounds) - 1
	slices.SortFunc(evs, cmpEvent)

	tree := newSegTree(nCells)
	tuples := make([]rec.Tuple, 0, len(evs))
	for i := 0; i < len(evs); {
		y := evs[i].y
		for ; i < len(evs) && evs[i].y == y; i++ {
			tree.Update(evs[i].l, evs[i].r, evs[i].w)
		}
		l, r := tree.MaxRun()
		tuples = append(tuples, rec.Tuple{Y: y, X1: bounds[l], X2: bounds[r], Sum: tree.Max()})
	}
	return tuples
}

// event is one horizontal edge of a clipped rectangle: the sweep adds w
// to cells [l, r) at y (w is negated for a top edge).
type event struct {
	y    float64
	w    float64
	l, r int
	top  bool
}

// cmpEvent orders events by y, tops (removals) before bottoms (additions)
// at equal y, so a rectangle half-open in y never coexists with one
// starting at its top. Events equal under it keep the order pdqsort
// leaves them in; slices.SortFunc runs the same pdqsort as sort.Slice, so
// the arrangement — and with it the order of every float addition — is
// the one a sort.Slice with the matching less function produces.
func cmpEvent(a, b event) int {
	switch {
	case a.y != b.y:
		if a.y < b.y {
			return -1
		}
		return 1
	case a.top && !b.top:
		return -1
	case !a.top && b.top:
		return 1
	}
	return 0
}

// Result is a solved MaxRS instance: Region is a rectangle of optimal
// center locations (any point of it is an optimal answer), and Sum is the
// total covered weight at those locations.
type Result struct {
	Region geom.Rect
	Sum    float64
}

// Best reports an optimal center location: a finite point of Region. On
// each axis it is the midpoint of a finite interval; for a half-infinite
// interval it steps one unit in from the finite bound, and for an
// unbounded axis it is 0. (An optimal region is unbounded when the
// optimum covers nothing, as MinRS over positive weights does.)
func (r Result) Best() geom.Point {
	return geom.Point{X: finiteIn(r.Region.X), Y: finiteIn(r.Region.Y)}
}

// finiteIn returns a finite point of the non-empty half-open interval iv.
func finiteIn(iv geom.Interval) float64 {
	loInf, hiInf := math.IsInf(iv.Lo, -1), math.IsInf(iv.Hi, 1)
	switch {
	case loInf && hiInf:
		return 0
	case hiInf:
		return iv.Lo + 1 // Lo itself is inside when Lo+1 rounds to it
	case loInf:
		if x := iv.Hi - 1; x < iv.Hi {
			return x
		}
		return math.Nextafter(iv.Hi, math.Inf(-1))
	}
	return iv.Mid()
}

// BestRegion scans a slab file (tuples in ascending y) and returns the
// max-region: the strip of the tuple with the largest sum, extended to the
// next tuple's y. This converts the transformed problem's answer back to
// the original MaxRS answer (§5.1).
func BestRegion(tuples []rec.Tuple) Result {
	best := Result{Region: geom.Rect{
		X: geom.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)},
		Y: geom.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)},
	}}
	for i, t := range tuples {
		if i == 0 || t.Sum > best.Sum {
			yHi := math.Inf(1)
			if i+1 < len(tuples) {
				yHi = tuples[i+1].Y
			}
			best = Result{
				Region: geom.Rect{
					X: geom.Interval{Lo: t.X1, Hi: t.X2},
					Y: geom.Interval{Lo: t.Y, Hi: yHi},
				},
				Sum: t.Sum,
			}
		}
	}
	return best
}

// MaxRS solves the MaxRS problem exactly in memory: it transforms each
// object into its centered w×h rectangle (§5.1), sweeps, and returns the
// max-region and its weight. Intended for datasets that fit in memory and
// as the correctness oracle for the external algorithm.
func MaxRS(objs []geom.Object, w, h float64) Result {
	rects := make([]rec.WRect, 0, len(objs))
	for _, o := range objs {
		rects = append(rects, rec.FromObject(rec.FromGeom(o), w, h))
	}
	return MaxRSRects(rects)
}

// MaxRSRects solves the transformed problem directly on weighted rectangles.
func MaxRSRects(rects []rec.WRect) Result {
	full := geom.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
	return BestRegion(Slab(rects, full))
}

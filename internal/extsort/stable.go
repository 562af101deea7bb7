package extsort

import (
	"cmp"
	"math"
	"slices"

	"maxrs/internal/radix"
)

// StableSort sorts buf by less and keeps records that compare equal in
// their input order. It is the comparator path: run formation uses it for
// compound orders such as rec.Event.Less, while an order by one float64
// key goes through radix.SortByKey (NewKeyedRunBuilder), which produces
// the same arrangement. It runs pdqsort (slices.SortFunc) over record
// ordinals under the total order (less, ordinal). No two ordinals tie
// under that order, so it has exactly one sorted arrangement, and that
// arrangement is the stable one. The sorted permutation is then applied
// to buf in place (radix.Permute), so the extra memory is one ordinal per
// record, not a second record buffer. less must be a strict weak order,
// as for any sort.
func StableSort[T any](buf []T, less func(a, b T) bool) {
	switch {
	case len(buf) < 2:
	case len(buf) <= math.MaxInt32:
		stableSort[T, int32](buf, less)
	default:
		stableSort[T, int](buf, less)
	}
}

func stableSort[T any, I int32 | int](buf []T, less func(a, b T) bool) {
	perm := make([]I, len(buf))
	for i := range perm {
		perm[i] = I(i)
	}
	slices.SortFunc(perm, func(i, j I) int {
		switch {
		case less(buf[i], buf[j]):
			return -1
		case less(buf[j], buf[i]):
			return 1
		}
		return cmp.Compare(i, j)
	})
	radix.Permute(buf, perm)
}

package extsort

import (
	"cmp"
	"math"
	"slices"
)

// StableSort sorts buf by less and keeps records that compare equal in
// their input order: the arrangement sort.SliceStable produces, without
// its reflection swapper and its O(n log² n) in-place merge. It runs
// pdqsort (slices.SortFunc) over record ordinals under the total order
// (less, ordinal). No two ordinals tie under that order, so it has exactly
// one sorted arrangement, and that arrangement is the stable one. The
// sorted permutation is then applied to buf in place by following its
// cycles, so the extra memory is one ordinal per record, not a second
// record buffer. less must be a strict weak order, as for any sort.
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
	// perm[k] is the input position of the record that belongs at k. Each
	// cycle k → perm[k] → … is rotated once, and a filled position is
	// marked by perm[j] = j.
	for k := range perm {
		if perm[k] == I(k) {
			continue
		}
		first := buf[k]
		j := k
		for {
			next := int(perm[j])
			perm[j] = I(j)
			if next == k {
				buf[j] = first
				break
			}
			buf[j] = buf[next]
			j = next
		}
	}
}

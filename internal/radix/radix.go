// Package radix is the stable in-memory sort for records ordered by one
// float64 key (DESIGN.md §8.4): an LSD radix sort over an order-preserving
// uint64 image of the key. It serves run formation, the resident base case
// and the sweep's cell index — every in-memory sort whose order is
// key(a) < key(b).
//
// A stable sort under a strict weak order has exactly one output, so
// SortByKey(buf, key) leaves buf exactly as a comparator stable sort with
// less(a, b) = key(a) < key(b) does. Keys must not be NaN (objects with a
// NaN coordinate and NaN query sizes are rejected on entry); ±Inf sort to
// the ends.
package radix

import "math"

// image maps a float64 to a uint64 whose unsigned order is the order of <
// on non-NaN floats: −0 is collapsed to +0 first (the two compare equal),
// then the sign bit is flipped on non-negative values and every bit on
// negative ones.
func image(f float64) uint64 {
	if f == 0 {
		f = 0 // −0 → +0
	}
	b := math.Float64bits(f)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// SortByKey stable-sorts buf by key. The extra memory is one uint64 image
// and two ordinals per record (int32 up to 2³¹ records): the ordinals are
// radix-sorted by image and the sorted permutation is then applied to buf
// in place.
func SortByKey[T any](buf []T, key func(T) float64) {
	switch {
	case len(buf) < 2:
	case len(buf) <= math.MaxInt32:
		sortByKey[T, int32](buf, key)
	default:
		sortByKey[T, int](buf, key)
	}
}

func sortByKey[T any, I int32 | int](buf []T, key func(T) float64) {
	img := make([]uint64, len(buf))
	for i, v := range buf {
		img[i] = image(key(v))
	}
	Permute(buf, order[I](img))
}

// Ascending calls visit with every index of keys, in ascending key order
// and, among equal keys, in index order.
func Ascending(keys []float64, visit func(i int)) {
	img := make([]uint64, len(keys))
	for i, k := range keys {
		img[i] = image(k)
	}
	if len(keys) <= math.MaxInt32 {
		for _, i := range order[int32](img) {
			visit(int(i))
		}
		return
	}
	for _, i := range order[int](img) {
		visit(i)
	}
}

// order returns the indexes of img in ascending image order, equal images
// in index order: one counting-sort pass per byte, least significant
// first. Each pass is stable, so after the last one ties keep index order.
// A byte that is the same in every image leaves the order unchanged, so
// its pass is skipped.
func order[I int32 | int](img []uint64) []I {
	var counts [8][256]int
	for _, k := range img {
		for b := range counts {
			counts[b][byte(k>>(8*b))]++
		}
	}
	src := make([]I, len(img))
	for i := range src {
		src[i] = I(i)
	}
	if len(img) < 2 {
		return src
	}
	dst := make([]I, len(img))
	for b := range counts {
		c := &counts[b]
		shift := 8 * b
		if c[byte(img[0]>>shift)] == len(img) {
			continue
		}
		next := 0
		for d, n := range c {
			c[d] = next
			next += n
		}
		for _, i := range src {
			d := byte(img[i] >> shift)
			at := c[d]
			c[d] = at + 1
			dst[at] = i
		}
		src, dst = dst, src
	}
	return src
}

// Permute rearranges buf so that buf[k] becomes the old buf[perm[k]], in
// place: each cycle k → perm[k] → … is rotated once, and a filled position
// is marked by perm[j] = j, so perm is consumed.
func Permute[T any, I int32 | int](buf []T, perm []I) {
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

package radix

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// kv is a (key, payload) record: it sorts by key alone, and the payload
// records its input position, so an unstable sort shows in the output.
type kv struct {
	key float64
	pos int
}

func keyOf(v kv) float64 { return v.key }

// stableOracle is the reference: the comparator stable sort by key(a) <
// key(b), the order SortByKey must reproduce.
func stableOracle(vs []kv) []kv {
	want := slices.Clone(vs)
	slices.SortStableFunc(want, func(a, b kv) int {
		switch {
		case a.key < b.key:
			return -1
		case b.key < a.key:
			return 1
		}
		return 0
	})
	return want
}

// sameBits reports whether two arrangements hold the same records with
// bit-identical keys, so a −0 that swapped places with a +0 shows.
func sameBits(a, b []kv) bool {
	return slices.EqualFunc(a, b, func(x, y kv) bool {
		return math.Float64bits(x.key) == math.Float64bits(y.key) && x.pos == y.pos
	})
}

func records(keys []float64) []kv {
	vs := make([]kv, len(keys))
	for i, k := range keys {
		vs[i] = kv{key: k, pos: i}
	}
	return vs
}

func sortCases() map[string][]float64 {
	rng := rand.New(rand.NewSource(7))
	negZero := math.Copysign(0, -1)
	special := []float64{
		math.Inf(-1), math.Inf(1), negZero, 0, -math.MaxFloat64, math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1030, 1, -1, 0.5, -0.5,
	}
	cases := map[string][]float64{
		"n=0":               nil,
		"n=1":               {3},
		"n=2":               {2, 1},
		"n=2/tied":          {negZero, 0},
		"n=2/tied/reversed": {0, negZero},
	}
	from := func(n int, f func(i int) float64) []float64 {
		ks := make([]float64, n)
		for i := range ks {
			ks[i] = f(i)
		}
		return ks
	}
	for _, n := range []int{3, 50, 1000, 20_000} {
		for _, distinct := range []int{1, 3, 100} {
			cases[fmt.Sprintf("ties/n=%d/keys=%d", n, distinct)] = from(n, func(int) float64 {
				return float64(rng.Intn(distinct)) - 1
			})
		}
		cases[fmt.Sprintf("zeros/n=%d", n)] = from(n, func(int) float64 {
			return []float64{negZero, 0}[rng.Intn(2)]
		})
		cases[fmt.Sprintf("special/n=%d", n)] = from(n, func(int) float64 {
			return special[rng.Intn(len(special))]
		})
		cases[fmt.Sprintf("mixed/n=%d", n)] = from(n, func(int) float64 {
			return (rng.Float64() - 0.5) * math.Pow(2, float64(rng.Intn(2100)-1075))
		})
	}
	cases["all-equal"] = from(5000, func(int) float64 { return -2.5 })
	cases["sorted"] = from(5000, func(i int) float64 { return float64(i/3) - 800 })
	cases["reversed"] = from(5000, func(i int) float64 { return float64((5000-i)/3) - 800 })
	cases["subnormal"] = from(5000, func(i int) float64 {
		return float64(rng.Intn(64)-32) * math.SmallestNonzeroFloat64
	})
	return cases
}

// TestSortByKeyMatchesSortStableFunc is the kernel's contract: for every
// input it leaves the records exactly where a comparator stable sort by
// the same key does — −0 and +0 compare equal and so keep input order.
func TestSortByKeyMatchesSortStableFunc(t *testing.T) {
	for name, keys := range sortCases() {
		vs := records(keys)
		want := stableOracle(vs)
		got := slices.Clone(vs)
		SortByKey(got, keyOf)
		if !sameBits(got, want) {
			t.Errorf("%s: SortByKey differs from slices.SortStableFunc", name)
		}
	}
}

// TestAscendingMatchesSortStableFunc: Ascending visits indexes in the
// order of the stable sort.
func TestAscendingMatchesSortStableFunc(t *testing.T) {
	for name, keys := range sortCases() {
		want := stableOracle(records(keys))
		var got []int
		Ascending(keys, func(i int) { got = append(got, i) })
		if len(got) != len(want) {
			t.Fatalf("%s: visited %d indexes, want %d", name, len(got), len(want))
		}
		for k, i := range got {
			if i != want[k].pos {
				t.Errorf("%s: position %d visits index %d, want %d", name, k, i, want[k].pos)
				break
			}
		}
	}
}

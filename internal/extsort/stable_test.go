package extsort

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"maxrs/internal/em"
)

// kv is a (key, payload) record: it sorts by key alone, and the payload
// records its input position, so an unstable sort shows in the output.
type kv struct{ key, pos int64 }

type kvCodec struct{}

func (kvCodec) Size() int { return 16 }
func (kvCodec) Encode(d []byte, v kv) {
	binary.LittleEndian.PutUint64(d, uint64(v.key))
	binary.LittleEndian.PutUint64(d[8:], uint64(v.pos))
}
func (kvCodec) Decode(s []byte) kv {
	return kv{int64(binary.LittleEndian.Uint64(s)), int64(binary.LittleEndian.Uint64(s[8:]))}
}

func lessKey(a, b kv) bool { return a.key < b.key }

// tiedRecords returns n records whose keys come from only `keys` values,
// so most records tie with many others, in input order by pos.
func tiedRecords(rng *rand.Rand, n, keys int) []kv {
	vs := make([]kv, n)
	for i := range vs {
		vs[i] = kv{key: rng.Int63n(int64(keys)), pos: int64(i)}
	}
	return vs
}

// stableOracle is the reference stable arrangement.
func stableOracle(vs []kv) []kv {
	want := slices.Clone(vs)
	slices.SortStableFunc(want, func(a, b kv) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		}
		return 0
	})
	return want
}

func TestStableSortMatchesSortStableFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cases := map[string][]kv{
		"empty":  nil,
		"single": {{key: 7}},
	}
	for _, n := range []int{2, 3, 12, 13, 50, 1000, 20_000} {
		for _, keys := range []int{1, 3, 100} {
			cases[fmt.Sprintf("random/n=%d/keys=%d", n, keys)] = tiedRecords(rng, n, keys)
		}
	}
	shaped := func(n int, key func(i int) int64) []kv {
		vs := make([]kv, n)
		for i := range vs {
			vs[i] = kv{key: key(i), pos: int64(i)}
		}
		return vs
	}
	cases["sorted"] = shaped(5000, func(i int) int64 { return int64(i / 3) })
	cases["reversed"] = shaped(5000, func(i int) int64 { return int64((5000 - i) / 3) })
	cases["all-equal"] = shaped(5000, func(int) int64 { return 4 })
	for name, vs := range cases {
		want := stableOracle(vs)
		got := slices.Clone(vs)
		StableSort(got, lessKey)
		if !slices.Equal(got, want) {
			t.Errorf("%s: StableSort differs from slices.SortStableFunc", name)
		}
	}
}

// TestExternalSortsAreStable pins the stability every external sort path
// inherits from its run sort and its run-index merge tiebreak: equal keys
// leave Sort, SortP and RunBuilder+Merger in input order. The tiny memory
// gives 64 records per run and a fan-in of 7, so the input spans many runs
// and more than one merge level.
func TestExternalSortsAreStable(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vs := tiedRecords(rng, 5000, 20)
	want := stableOracle(vs)
	check := func(name string, got []kv) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Errorf("%s: equal keys left input order", name)
		}
	}
	newEnv := func() em.Env { return em.MustNewEnv(128, 1024) }

	sortFile := func(p int) []kv {
		env := newEnv()
		in, err := em.WriteAll[kv](env.Disk, kvCodec{}, vs)
		if err != nil {
			t.Fatal(err)
		}
		var out *em.File
		if p == 0 {
			out, err = Sort(env, in, kvCodec{}, lessKey)
		} else {
			out, err = SortP(env, in, kvCodec{}, lessKey, p)
		}
		if err != nil {
			t.Fatal(err)
		}
		got, err := em.ReadAll[kv](out, kvCodec{})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	check("Sort", sortFile(0))
	for _, p := range []int{1, 2, 4} {
		check(fmt.Sprintf("SortP(p=%d)", p), sortFile(p))
	}

	for _, p := range []int{1, 2, 4} {
		env := newEnv()
		rb, err := NewRunBuilder(env, kvCodec{}, lessKey, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			if err := rb.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		runs, err := rb.Finish()
		if err != nil {
			t.Fatal(err)
		}
		m := NewMerger(env, runs, kvCodec{}, lessKey, p)
		if err := m.Reduce(); err != nil {
			t.Fatal(err)
		}
		var got []kv
		if err := m.MergeInto(func(v kv) error { got = append(got, v); return nil }); err != nil {
			t.Fatal(err)
		}
		if err := m.Release(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("RunBuilder+Merger(p=%d)", p), got)
	}
}

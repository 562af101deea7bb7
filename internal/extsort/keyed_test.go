package extsort

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"maxrs/internal/em"
	"maxrs/internal/rec"
	"maxrs/internal/workload"
)

// runBytes feeds vals into rb and returns the bytes of every spilled run,
// in run order, and the transfers counted up to Finish.
func runBytes[T any](t *testing.T, env em.Env, rb *RunBuilder[T], vals []T) ([][]byte, em.Stats) {
	t.Helper()
	for _, v := range vals {
		if err := rb.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := rb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	stats := env.Disk.Stats() // before the verification reads
	out := make([][]byte, len(runs))
	for i, r := range runs {
		if out[i], err = io.ReadAll(r.NewReader()); err != nil {
			t.Fatal(err)
		}
		if err := r.Release(); err != nil {
			t.Fatal(err)
		}
	}
	return out, stats
}

// checkKeyedRunsIdentical builds runs of vals through the comparator
// builder (less) and the keyed builder (key) and requires byte-identical
// run files and equal transfer counts.
func checkKeyedRunsIdentical[T any](t *testing.T, name string, codec em.Codec[T], vals []T, less func(a, b T) bool, key func(T) float64) {
	t.Helper()
	for _, p := range []int{1, 2} {
		envL, envK := em.MustNewEnv(256, 4096), em.MustNewEnv(256, 4096)
		rbL, err := NewRunBuilder(envL, codec, less, p)
		if err != nil {
			t.Fatal(err)
		}
		rbK, err := NewKeyedRunBuilder(envK, codec, key, p)
		if err != nil {
			t.Fatal(err)
		}
		wantRuns, wantStats := runBytes(t, envL, rbL, vals)
		gotRuns, gotStats := runBytes(t, envK, rbK, vals)
		if len(gotRuns) != len(wantRuns) {
			t.Fatalf("%s p=%d: %d keyed runs, %d comparator runs", name, p, len(gotRuns), len(wantRuns))
		}
		for i := range wantRuns {
			if !slices.Equal(gotRuns[i], wantRuns[i]) {
				t.Errorf("%s p=%d: run %d differs between keyed and comparator formation", name, p, i)
			}
		}
		if gotStats != wantStats {
			t.Errorf("%s p=%d: keyed formation counted %+v, comparator %+v", name, p, gotStats, wantStats)
		}
	}
}

// fkv is a float-keyed (key, payload) record.
type fkv struct {
	key float64
	pos int64
}

type fkvCodec struct{}

func (fkvCodec) Size() int { return 16 }
func (fkvCodec) Encode(d []byte, v fkv) {
	binary.LittleEndian.PutUint64(d, math.Float64bits(v.key))
	binary.LittleEndian.PutUint64(d[8:], uint64(v.pos))
}
func (fkvCodec) Decode(s []byte) fkv {
	return fkv{math.Float64frombits(binary.LittleEndian.Uint64(s)), int64(binary.LittleEndian.Uint64(s[8:]))}
}

// TestKeyedRunsMatchComparatorRuns: run formation by key writes exactly
// the runs — block for block, transfer for transfer — that run formation
// by the equivalent comparator writes, for tie-heavy keys with
// interleaved ±0 and ±Inf, and for the piece events of the root sort.
func TestKeyedRunsMatchComparatorRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	keys := []float64{math.Inf(-1), math.Copysign(0, -1), 0, 1.5, -2, math.Inf(1), math.SmallestNonzeroFloat64}
	for _, n := range []int{0, 1, 255, 256, 257, 5000} {
		vals := make([]fkv, n)
		for i := range vals {
			vals[i] = fkv{key: keys[rng.Intn(len(keys))], pos: int64(i)}
		}
		checkKeyedRunsIdentical(t, fmt.Sprintf("fkv/n=%d", n), fkvCodec{}, vals,
			func(a, b fkv) bool { return a.key < b.key },
			func(v fkv) float64 { return v.key })
	}

	// Piece events of objects on a coarse grid, so many share a y.
	objs := workload.Uniform(5, 3000, 1e4)
	events := make([]rec.PieceEvent, 0, 2*len(objs))
	edges := make([]float64, 0, 4*len(objs))
	for _, o := range objs {
		o.X, o.Y = math.Round(o.X/100)*100, math.Round(o.Y/100)*100
		r := rec.FromObject(rec.FromGeom(o), 300, 300)
		bottom, top := rec.PieceEventsOf(r)
		events = append(events, bottom, top)
		edges = append(edges, r.X1, r.X2, r.X1, r.X2)
	}
	checkKeyedRunsIdentical(t, "events", rec.PieceEventCodec{}, events,
		func(a, b rec.PieceEvent) bool { return a.Y() < b.Y() }, rec.PieceEvent.Y)
	checkKeyedRunsIdentical(t, "edges", rec.Float64Codec{}, edges,
		func(a, b float64) bool { return a < b }, func(v float64) float64 { return v })
}

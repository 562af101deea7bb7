// Package extsort implements the textbook external merge sort in the EM
// model: run formation fills the M-byte memory with records, sorts them, and
// spills sorted runs; then repeated (M/B − 1)-way merges reduce the runs to
// one. Total cost O((N/B) log_{M/B}(N/B)) block transfers — the same bound
// as, and a prerequisite of, ExactMaxRS (§5, Theorem 2).
//
// SortP additionally exploits CPU parallelism in the PEM style (DESIGN.md
// §6): run buffers are sorted and spilled by worker goroutines pipelined
// behind the single reader, and independent merge groups of one level run
// concurrently. Run boundaries and the merge tree are byte-identical to the
// sequential schedule, so the counted transfer total never depends on the
// worker count.
//
// The two halves of the sort are also exposed separately for pass fusion
// (DESIGN.md §8): a RunBuilder accepts records from a producer and spills
// sorted runs directly — no unsorted input file is ever written or re-read
// — and a Merger reduces runs to one final merge level and replays that
// final merge into a caller sink via MergeInto, so the sorted output need
// never be materialized either. SortP itself is RunBuilder + Merger with a
// file reader on one end and a file writer on the other; the run boundaries
// and the merge tree are identical however the halves are driven.
package extsort

import (
	"container/heap"
	"fmt"
	"io"
	"runtime"
	"sync"

	"maxrs/internal/conc"
	"maxrs/internal/em"
	"maxrs/internal/radix"
)

// Sort sorts the records of in according to less and returns a new sorted
// file. The input file is not modified and not released. The memory budget
// env.M bounds both the run-formation buffer and the merge fan-in.
func Sort[T any](env em.Env, in *em.File, codec em.Codec[T], less func(a, b T) bool) (*em.File, error) {
	return SortP(env, in, codec, less, 1)
}

// SortP is Sort with up to parallelism worker goroutines (≤ 0 selects
// GOMAXPROCS). The output file and the block-transfer counts are identical
// for every parallelism value; only wall-clock time changes.
func SortP[T any](env em.Env, in *em.File, codec em.Codec[T], less func(a, b T) bool, parallelism int) (*em.File, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	runs, err := formRuns(env, in, codec, less, parallelism)
	if err != nil {
		return nil, err
	}
	return mergeRuns(env, runs, codec, less, true, parallelism)
}

// fanInOf returns the merge fan-in: all memory blocks minus one reserved
// for the output buffer, floored at 2 so the merge always makes progress.
func fanInOf(env em.Env) int {
	fanIn := env.MemBlocks() - 1
	if fanIn < 2 {
		fanIn = 2
	}
	return fanIn
}

// sortAndSpill sorts one run buffer with sortRun and writes it out as a
// run file. The cancellation check runs before the in-memory sort — the
// one long CPU-only stretch of run formation — and the spill writes
// themselves abort at block granularity through the env-carried context.
func sortAndSpill[T any](env em.Env, codec em.Codec[T], sortRun func([]T), buf []T) (*em.File, error) {
	if err := env.Err(); err != nil {
		return nil, err
	}
	sortRun(buf)
	return em.WriteAllEnv(env, codec, buf)
}

// byLess is the comparator run sort; byKey is the radix run sort for an
// order by one float64 key. Both are stable, so for less(a, b) =
// key(a) < key(b) they leave a buffer in the same arrangement.
func byLess[T any](less func(a, b T) bool) func([]T) {
	return func(buf []T) { StableSort(buf, less) }
}

func byKey[T any](key func(T) float64) func([]T) {
	return func(buf []T) { radix.SortByKey(buf, key) }
}

// spiller owns the sort-and-spill worker pool shared by formRuns and
// RunBuilder: full run buffers are handed to dispatch in input order, and
// run i lands in slot i of the result regardless of which worker spilled
// it — the PEM invariant that keeps run boundaries worker-count-free.
type spiller[T any] struct {
	env     em.Env
	codec   em.Codec[T]
	sortRun func([]T)
	workers int

	jobs    chan spillJob[T]
	started bool
	wg      sync.WaitGroup

	mu       sync.Mutex
	runs     []*em.File
	firstErr error
}

type spillJob[T any] struct {
	idx int
	buf []T
}

func newSpiller[T any](env em.Env, codec em.Codec[T], sortRun func([]T), parallelism int) *spiller[T] {
	return &spiller[T]{env: env, codec: codec, sortRun: sortRun, workers: parallelism}
}

func (sp *spiller[T]) place(idx int, f *em.File, err error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if err != nil {
		if sp.firstErr == nil {
			sp.firstErr = err
		}
		return
	}
	for len(sp.runs) <= idx {
		sp.runs = append(sp.runs, nil)
	}
	sp.runs[idx] = f
}

// dispatch hands one full run buffer over for sorting and spilling. With a
// single worker it runs inline and reports the error directly; otherwise
// the error surfaces at finish. Workers are started lazily so builders
// that never spill cost no goroutines. An unbuffered channel with p
// workers bounds in-flight run buffers to p+1 (p sorting/spilling + 1
// filling): the PEM budget of DESIGN.md §6.
func (sp *spiller[T]) dispatch(idx int, buf []T) error {
	if sp.workers <= 1 {
		f, err := sortAndSpill(sp.env, sp.codec, sp.sortRun, buf)
		sp.place(idx, f, err)
		return err
	}
	if !sp.started {
		sp.started = true
		sp.jobs = make(chan spillJob[T])
		for w := 0; w < sp.workers; w++ {
			sp.wg.Add(1)
			go func() {
				defer sp.wg.Done()
				for j := range sp.jobs {
					f, err := sortAndSpill(sp.env, sp.codec, sp.sortRun, j.buf)
					sp.place(j.idx, f, err)
				}
			}()
		}
	}
	sp.jobs <- spillJob[T]{idx: idx, buf: buf}
	sp.mu.Lock()
	err := sp.firstErr
	sp.mu.Unlock()
	return err
}

// finish drains the workers and returns the spilled runs in input order,
// releasing everything on error.
func (sp *spiller[T]) finish() ([]*em.File, error) {
	if sp.started {
		close(sp.jobs)
		sp.wg.Wait()
		sp.started = false
		sp.jobs = nil
	}
	if sp.firstErr != nil {
		sp.releaseAll()
		return nil, sp.firstErr
	}
	return sp.runs, nil
}

func (sp *spiller[T]) releaseAll() {
	for _, r := range sp.runs {
		if r != nil {
			_ = r.Release()
		}
	}
	sp.runs = nil
}

// RunBuilder accepts records one at a time and spills them as sorted runs
// of ≤ M bytes each — the input half of the external sort, exposed so
// producers (core.buildInput) can stream records straight into run
// formation instead of materializing an unsorted file first (input→run
// fusion, DESIGN.md §8). Run i always holds records [i·R, (i+1)·R) of the
// Add sequence, exactly as if the sequence had been written to a file and
// sorted with SortP, so downstream merge trees — and transfer counts — are
// identical to the unfused pipeline minus the eliminated passes.
type RunBuilder[T any] struct {
	env    em.Env
	codec  em.Codec[T]
	perRun int
	buf    []T
	idx    int
	count  int64
	sp     *spiller[T]
	done   bool
}

// NewRunBuilder validates the environment and returns an empty builder
// whose runs are sorted by less. parallelism bounds the sort/spill worker
// goroutines exactly as in SortP (≤ 0 selects GOMAXPROCS); run boundaries
// never depend on it.
func NewRunBuilder[T any](env em.Env, codec em.Codec[T], less func(a, b T) bool, parallelism int) (*RunBuilder[T], error) {
	return newRunBuilder(env, codec, byLess(less), parallelism)
}

// NewKeyedRunBuilder is NewRunBuilder for the order key(a) < key(b): its
// runs are sorted by radix.SortByKey and are byte-identical to the runs of
// NewRunBuilder with that less. Merge them with that less.
func NewKeyedRunBuilder[T any](env em.Env, codec em.Codec[T], key func(T) float64, parallelism int) (*RunBuilder[T], error) {
	return newRunBuilder(env, codec, byKey(key), parallelism)
}

func newRunBuilder[T any](env em.Env, codec em.Codec[T], sortRun func([]T), parallelism int) (*RunBuilder[T], error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	perRun := env.M / codec.Size()
	if perRun < 1 {
		return nil, fmt.Errorf("extsort: memory %dB cannot hold one %dB record", env.M, codec.Size())
	}
	return &RunBuilder[T]{
		env:    env,
		codec:  codec,
		perRun: perRun,
		buf:    make([]T, 0, perRun),
		sp:     newSpiller(env, codec, sortRun, parallelism),
	}, nil
}

// spillIfFull spills the buffer as the next run when — and only when — it
// holds exactly perRun records. Every spill goes through here, which is
// what keeps run boundaries identical between Add- and fill-driven
// builders and preserves the lazy-spill invariant Take depends on.
func (rb *RunBuilder[T]) spillIfFull() error {
	if len(rb.buf) < rb.perRun {
		return nil
	}
	if err := rb.sp.dispatch(rb.idx, rb.buf); err != nil {
		return err
	}
	rb.idx++
	rb.buf = make([]T, 0, rb.perRun)
	return nil
}

// Add appends one record. The full buffer is spilled lazily — on the Add
// that overflows it — so a sequence of exactly perRun records stays
// resident and can be taken with Take.
func (rb *RunBuilder[T]) Add(v T) error {
	if err := rb.spillIfFull(); err != nil {
		return err
	}
	rb.buf = append(rb.buf, v)
	rb.count++
	return nil
}

// fill drains read — a ReadBatch-shaped source decoding records straight
// into the buffer's free space, so batch producers skip the per-record
// Add call — until it returns io.EOF, spilling full buffers as runs.
func (rb *RunBuilder[T]) fill(read func(dst []T) (int, error)) error {
	for {
		if err := rb.spillIfFull(); err != nil {
			return err
		}
		n, err := read(rb.buf[len(rb.buf):rb.perRun])
		rb.buf = rb.buf[:len(rb.buf)+n]
		rb.count += int64(n)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// Count returns the number of records added so far.
func (rb *RunBuilder[T]) Count() int64 { return rb.count }

// Spilled reports whether any run has been written to disk yet. False
// means every record is still in the memory buffer.
func (rb *RunBuilder[T]) Spilled() bool { return rb.idx > 0 }

// Take hands over the in-memory record buffer, in Add order, for callers
// that discover the whole input fits in memory (the fused base case). It
// must only be called when Spilled() is false; the builder is consumed.
func (rb *RunBuilder[T]) Take() ([]T, error) {
	if rb.Spilled() {
		return nil, fmt.Errorf("extsort: Take after %d runs spilled", rb.idx)
	}
	rb.done = true
	buf := rb.buf
	rb.buf = nil
	return buf, nil
}

// Finish spills the final partial buffer and returns the sorted runs in
// input order. An empty input yields one empty run, matching SortP. On
// error every spilled run is released. The builder is consumed.
func (rb *RunBuilder[T]) Finish() ([]*em.File, error) {
	rb.done = true
	if len(rb.buf) > 0 {
		err := rb.sp.dispatch(rb.idx, rb.buf)
		rb.idx++
		rb.buf = nil
		if err != nil {
			_, _ = rb.sp.finish() // drain workers; releases runs on error
			rb.sp.releaseAll()
			return nil, err
		}
	}
	runs, err := rb.sp.finish()
	if err != nil {
		return nil, err
	}
	if rb.idx == 0 { // empty input → empty sorted run
		runs = append(runs, rb.env.NewFile())
	}
	return runs, nil
}

// Discard drains the workers and releases every spilled run — the error
// path counterpart of Finish/Take. Safe to call after either (a no-op).
func (rb *RunBuilder[T]) Discard() {
	if rb.done {
		return
	}
	rb.done = true
	rb.buf = nil
	_, _ = rb.sp.finish()
	rb.sp.releaseAll()
}

// formRuns produces sorted runs of ≤ M bytes each. Run i always holds
// records [i·perRun, (i+1)·perRun) of the input regardless of parallelism:
// workers only take over the sort + spill of a buffer the reader has
// already filled. On error every already-spilled run is released.
func formRuns[T any](env em.Env, in *em.File, codec em.Codec[T], less func(a, b T) bool, parallelism int) ([]*em.File, error) {
	rb, err := NewRunBuilder(env, codec, less, parallelism)
	if err != nil {
		return nil, err
	}
	rr, err := em.OpenRecordReader(env, in, codec)
	if err != nil {
		return nil, err
	}
	if err := rb.fill(rr.ReadBatch); err != nil {
		rb.Discard()
		return nil, err
	}
	return rb.Finish()
}

// Merger owns a set of sorted runs and merges them down. Reduce collapses
// whole merge levels — with the exact grouping of SortP — until at most
// fanIn runs remain; MergeInto then replays the final merge into a caller
// sink without writing the sorted output (merge→sink fusion, DESIGN.md
// §8). MergeInto may be called repeatedly: each call costs one read pass
// over the remaining runs, which lets a consumer that needs two passes
// over the sorted stream (boundary selection, then distribution) trade
// the eliminated write+read of the sorted file for a second run read.
type Merger[T any] struct {
	env   em.Env
	codec em.Codec[T]
	less  func(a, b T) bool
	par   int
	runs  []*em.File
}

// NewMerger wraps sorted runs for merging. The Merger owns the runs:
// Reduce releases merged-away levels and Release frees the remainder.
func NewMerger[T any](env em.Env, runs []*em.File, codec em.Codec[T], less func(a, b T) bool, parallelism int) *Merger[T] {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Merger[T]{env: env, codec: codec, less: less, par: parallelism, runs: runs}
}

// Runs returns the current number of runs.
func (m *Merger[T]) Runs() int { return len(m.runs) }

// Reduce merges levels until one final merge pass remains (≤ fanIn runs).
// The grouping per level is identical to SortP's, so every transfer up to
// — but excluding — the final merge matches the unfused sort exactly.
func (m *Merger[T]) Reduce() error {
	fanIn := fanInOf(m.env)
	for len(m.runs) > fanIn {
		if err := m.env.Err(); err != nil {
			_ = m.Release()
			return err
		}
		next, err := mergeLevel(m.env, m.runs, m.codec, m.less, true, m.par)
		if err != nil {
			m.runs = nil // mergeLevel released everything
			return err
		}
		m.runs = next
	}
	return nil
}

// MergeInto streams the merge of the remaining runs into sink in sorted
// order. The runs are read, not consumed; call Release when done.
func (m *Merger[T]) MergeInto(sink func(T) error) error {
	return mergeInto(m.runs, m.codec, m.less, sink)
}

// Release frees the remaining runs. Idempotent.
func (m *Merger[T]) Release() error {
	var first error
	for _, r := range m.runs {
		if err := r.Release(); err != nil && first == nil {
			first = err
		}
	}
	m.runs = nil
	return first
}

// mergeRuns repeatedly merges groups of up to fanIn runs until one remains.
// If releaseInputs is true, merged-away runs are released. Groups of one
// level are independent and run on up to parallelism goroutines. On error
// every owned file — current-level inputs (when owned) and the partial
// next level — is released; File.Release is idempotent, so runs a group
// already freed are skipped for free.
func mergeRuns[T any](env em.Env, runs []*em.File, codec em.Codec[T], less func(a, b T) bool, releaseInputs bool, parallelism int) (*em.File, error) {
	fanIn := fanInOf(env)
	for len(runs) > fanIn {
		next, err := mergeLevel(env, runs, codec, less, releaseInputs, parallelism)
		if err != nil {
			return nil, err
		}
		runs = next
		releaseInputs = true // intermediate levels are always ours to free
	}
	if len(runs) == 1 {
		return runs[0], nil
	}
	out, err := mergeOnce(env, runs, codec, less)
	if err != nil {
		if releaseInputs {
			for _, r := range runs {
				_ = r.Release()
			}
		}
		return nil, err
	}
	if releaseInputs {
		for _, r := range runs {
			if err := r.Release(); err != nil {
				_ = out.Release()
				return nil, err
			}
		}
	}
	return out, nil
}

// mergeLevel merges one level of runs in groups of fanIn, releasing the
// group inputs when release is set. On error everything owned — inputs
// (when owned) and the partial next level — is released.
func mergeLevel[T any](env em.Env, runs []*em.File, codec em.Codec[T], less func(a, b T) bool, release bool, parallelism int) ([]*em.File, error) {
	fanIn := fanInOf(env)
	groups := (len(runs) + fanIn - 1) / fanIn
	next := make([]*em.File, groups)
	err := conc.ForEachIndexed(groups, parallelism, func(g int) error {
		lo := g * fanIn
		hi := min(lo+fanIn, len(runs))
		merged, err := mergeOnce(env, runs[lo:hi], codec, less)
		if err != nil {
			return err
		}
		if release {
			for _, r := range runs[lo:hi] {
				if err := r.Release(); err != nil {
					return err
				}
			}
		}
		next[g] = merged
		return nil
	})
	if err != nil {
		for _, f := range next {
			if f != nil {
				_ = f.Release()
			}
		}
		if release {
			for _, r := range runs {
				_ = r.Release()
			}
		}
		return nil, err
	}
	return next, nil
}

// mergeOnce k-way merges the given sorted runs into a fresh file,
// releasing the partial output on error.
func mergeOnce[T any](env em.Env, runs []*em.File, codec em.Codec[T], less func(a, b T) bool) (_ *em.File, err error) {
	out := env.NewFile()
	defer func() {
		if err != nil {
			_ = out.Release()
		}
	}()
	w, err := em.NewRecordWriter(out, codec)
	if err != nil {
		return nil, err
	}
	if err := mergeInto(runs, codec, less, w.Write); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// mergeInto k-way merges the given sorted runs, emitting every record to
// sink in sorted order (stable across runs by run index).
func mergeInto[T any](runs []*em.File, codec em.Codec[T], less func(a, b T) bool, sink func(T) error) error {
	h := &mergeHeap[T]{less: less}
	for i, r := range runs {
		rr, err := em.NewRecordReader(r, codec)
		if err != nil {
			return err
		}
		v, err := rr.Read()
		if err == io.EOF {
			continue
		}
		if err != nil {
			return err
		}
		h.items = append(h.items, mergeItem[T]{v: v, src: rr, idx: i})
	}
	heap.Init(h)
	for h.Len() > 0 {
		top := h.items[0]
		if err := sink(top.v); err != nil {
			return err
		}
		v, err := top.src.Read()
		if err == io.EOF {
			heap.Pop(h)
			continue
		}
		if err != nil {
			return err
		}
		h.items[0].v = v
		heap.Fix(h, 0)
	}
	return nil
}

type mergeItem[T any] struct {
	v   T
	src *em.RecordReader[T]
	idx int // run index, tiebreak for stability
}

type mergeHeap[T any] struct {
	items []mergeItem[T]
	less  func(a, b T) bool
}

func (h *mergeHeap[T]) Len() int { return len(h.items) }

func (h *mergeHeap[T]) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if h.less(a.v, b.v) {
		return true
	}
	if h.less(b.v, a.v) {
		return false
	}
	return a.idx < b.idx // stable across runs
}

func (h *mergeHeap[T]) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }

func (h *mergeHeap[T]) Push(x any) { h.items = append(h.items, x.(mergeItem[T])) }

func (h *mergeHeap[T]) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

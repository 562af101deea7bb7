package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"

	"maxrs"
	"maxrs/internal/geom"
	"maxrs/internal/sweep"
)

// kind is one query kind of the engine's public API.
type kind int

const (
	kMaxRS kind = iota
	kTopK
	kCountRS
	kMinRS
	kMaxCRS
)

var kindNames = [...]string{"maxrs", "topk", "countrs", "minrs", "maxcrs"}

func (k kind) String() string { return kindNames[k] }

// topK is the k of the TopK queries the library workloads issue.
const topK = 2

// setupReps is how many times a library run loads its dataset; setup_s
// is the median. A load takes about a millisecond, and its time drifts
// with the host over seconds: in one process on a two-core VM, medians
// of 100 loads taken 3 s apart ranged from 0.51 to 0.92 ms. So a run
// takes many loads, half before its timed loop and half after it, each
// timed alone from a collected heap (timed batches of 40 loads spread
// more widely still).
const setupReps = 201

// minSamples is the fewest timed ops a loop takes: p90 needs 100 samples
// (ten beyond it). A loop runs for -seconds and, should a slow machine
// not reach minSamples by then, continues until it does or until 1.5
// times the window has passed; a loop that still falls short fails the
// run.
const minSamples = 100

// libSpec defines a workload that drives the library (maxrs.Engine)
// in-process.
type libSpec struct {
	n      int
	gen    func(*rand.Rand, int) []maxrs.Object
	onDisk bool
	memory int // Options.Memory in bytes
	kinds  []kind
	shapes []shape
}

// externalUniform: 16k uniform objects are 32k piece events against the
// 7.99k events M = 320 KiB holds — the fourfold ratio of the paper's
// external-memory regime. Memory is scaled down from the 1 MiB default
// together with n (the fourfold ratio at 1 MiB needs 50k objects, whose
// queries take ~0.7 s each on two cores: too few samples per run). The
// file backend and every other option keep their defaults. One client
// issues MaxRS over eight sizes in a seeded rotation; the engine keeps no
// result cache for a clean dataset, so a repeated size costs what a new
// one does, and repeats let every answer be checked against an oracle
// computed once per size.
var externalUniform = libSpec{
	n:      16000,
	gen:    uniformObjects,
	onDisk: true,
	memory: 320 << 10,
	kinds:  []kind{kMaxRS},
	shapes: []shape{{10000, 10000}, {20000, 10000}, {10000, 20000}, {30000, 30000}, {15000, 40000}, {40000, 15000}, {25000, 25000}, {50000, 50000}},
}

// residentGaussian: 10k Gaussian objects are 20k piece events, inside
// the 25.5k events of the default M = 1 MiB, on the default in-memory
// engine. One client rotates through every query kind.
var residentGaussian = libSpec{
	n:      10000,
	gen:    gaussianObjects,
	memory: 1 << 20,
	kinds:  []kind{kMaxRS, kTopK, kCountRS, kMinRS, kMaxCRS},
	shapes: []shape{{20000, 20000}, {40000, 20000}, {20000, 40000}, {60000, 60000}, {30000, 30000}, {50000, 25000}},
}

func (s libSpec) options(dir string) *maxrs.Options {
	if s.onDisk {
		return &maxrs.Options{OnDisk: true, OnDiskDir: dir, Backend: maxrs.BackendFile, Memory: s.memory}
	}
	return &maxrs.Options{Memory: s.memory}
}

// answer is what one query returned, reduced to what is checked: the
// score and location of every result, and the counted block transfers.
type answer struct {
	scores []float64
	locs   []maxrs.Point
	io     uint64
}

func (a answer) equal(b answer) bool {
	if a.io != b.io || len(a.scores) != len(b.scores) {
		return false
	}
	for i := range a.scores {
		if !same(a.scores[i], b.scores[i]) || !same(a.locs[i].X, b.locs[i].X) || !same(a.locs[i].Y, b.locs[i].Y) {
			return false
		}
	}
	return true
}

// same is float equality under which NaN equals NaN: the center of an
// unbounded optimal region (MinRS on non-negative weights) is NaN on the
// unbounded axis, and must repeat as such.
func same(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// doQuery issues one query of kind k through the engine's public API.
func doQuery(ctx context.Context, eng *maxrs.Engine, ds *maxrs.Dataset, k kind, s shape) (answer, error) {
	one := func(r maxrs.Result, err error) (answer, error) {
		return answer{scores: []float64{r.Score}, locs: []maxrs.Point{r.Location}, io: r.Stats.Total()}, err
	}
	switch k {
	case kMaxRS:
		return one(eng.MaxRS(ctx, ds, s.w, s.h))
	case kCountRS:
		return one(eng.CountRS(ctx, ds, s.w, s.h))
	case kMinRS:
		return one(eng.MinRS(ctx, ds, s.w, s.h))
	case kTopK:
		rs, err := eng.TopK(ctx, ds, s.w, s.h, topK)
		var a answer
		for _, r := range rs {
			a.scores = append(a.scores, r.Score)
			a.locs = append(a.locs, r.Location)
			a.io += r.Stats.Total()
		}
		return a, err
	case kMaxCRS:
		r, err := eng.MaxCRS(ctx, ds, s.w)
		return answer{scores: []float64{r.Score}, locs: []maxrs.Point{r.Location}, io: r.Stats.Total()}, err
	}
	return answer{}, fmt.Errorf("unknown kind %d", k)
}

// verify checks one answer against the in-memory sweep oracle
// (sweep.MaxRS, the InMemory algorithm) on the same objects.
func verify(g []geom.Object, k kind, s shape, a answer) error {
	mapW := func(f func(float64) float64) []geom.Object {
		out := make([]geom.Object, len(g))
		for i, o := range g {
			out[i] = geom.Object{Point: o.Point, W: f(o.W)}
		}
		return out
	}
	want := func(label string, got, want float64) error {
		if got != want {
			return fmt.Errorf("%s %s %gx%g: score %g, oracle %g", k, label, s.w, s.h, got, want)
		}
		return nil
	}
	loc := func(i int) geom.Point { return geom.Point{X: a.locs[i].X, Y: a.locs[i].Y} }
	switch k {
	case kMaxRS:
		if err := want("optimum", a.scores[0], sweep.MaxRS(g, s.w, s.h).Sum); err != nil {
			return err
		}
		return want("weight at location", a.scores[0], geom.WeightIn(g, loc(0), s.w, s.h))
	case kCountRS:
		return want("optimum", a.scores[0], sweep.MaxRS(mapW(func(float64) float64 { return 1 }), s.w, s.h).Sum)
	case kMinRS:
		return want("optimum", a.scores[0], -sweep.MaxRS(mapW(func(w float64) float64 { return -w }), s.w, s.h).Sum)
	case kTopK:
		if len(a.scores) != topK {
			return fmt.Errorf("topk %gx%g: %d results, want %d", s.w, s.h, len(a.scores), topK)
		}
		if err := want("round 1", a.scores[0], sweep.MaxRS(g, s.w, s.h).Sum); err != nil {
			return err
		}
		if err := want("round 1 weight at location", a.scores[0], geom.WeightIn(g, loc(0), s.w, s.h)); err != nil {
			return err
		}
		covered := geom.RectFromCenter(loc(0), s.w, s.h)
		rest := make([]geom.Object, 0, len(g))
		for _, o := range g {
			if !covered.Contains(o.Point) {
				rest = append(rest, o)
			}
		}
		return want("round 2", a.scores[1], sweep.MaxRS(rest, s.w, s.h).Sum)
	case kMaxCRS:
		// ApproxMaxCRS: the score must be the weight its circle covers,
		// and at least a quarter of the optimum, which is at least the
		// best inscribed square's weight.
		if err := want("weight in circle", a.scores[0], geom.WeightInCircle(g, loc(0), s.w)); err != nil {
			return err
		}
		side := s.w / math.Sqrt2
		if lb := sweep.MaxRS(g, side, side).Sum; 4*a.scores[0] < lb {
			return fmt.Errorf("maxcrs d=%g: score %g below a quarter of the inscribed-square bound %g", s.w, a.scores[0], lb)
		}
		return nil
	}
	return fmt.Errorf("unknown kind %d", k)
}

// opKey names one (kind, shape) pair of a rotation.
type opKey struct {
	k kind
	s int
}

// rotation returns the j-th op of a workload's closed loop.
func rotation(kinds []kind, order []int, j int) opKey {
	return opKey{k: kinds[j%len(kinds)], s: order[(j/len(kinds))%len(order)]}
}

// loopStats is what one timed loop measured.
type loopStats struct {
	lat     []float64 // ms per completed op
	ios     []float64 // counted transfers per completed op
	elapsed float64   // seconds
	done    int
}

// loopDone reports whether a closed loop has measured enough.
func loopDone(rc *runCtx, elapsed time.Duration, n int) bool {
	s := elapsed.Seconds()
	return (s >= rc.seconds && n >= minSamples) || s >= 1.5*rc.seconds
}

// libLoop runs the single-client closed loop, checking every answer
// against the verified warm-up answer for its (kind, shape): scores,
// locations and the counted transfers must all repeat exactly.
func libLoop(rc *runCtx, tr *Tracer, eng *maxrs.Engine, ds *maxrs.Dataset, spec libSpec, shapes []shape, order []int, exp map[opKey]answer) loopStats {
	ctx := context.Background()
	var st loopStats
	start := time.Now()
	for j := 0; !loopDone(rc, time.Since(start), st.done); j++ {
		key := rotation(spec.kinds, order, j)
		rc.attempted++
		root := tr.Begin(int64(j), -1, "op."+key.k.String())
		call := tr.Begin(int64(j), root, "maxrs."+key.k.String())
		t0 := time.Now()
		a, err := doQuery(ctx, eng, ds, key.k, shapes[key.s])
		d := time.Since(t0)
		tr.End(call)
		tr.End(root)
		switch {
		case err != nil:
			rc.fail("%s %v: %v", key.k, shapes[key.s], err)
			continue
		case !a.equal(exp[key]):
			rc.fail("%s %v: answer %+v differs from the verified %+v", key.k, shapes[key.s], a, exp[key])
			continue
		}
		st.done++
		st.lat = append(st.lat, float64(d.Nanoseconds())/1e6)
		st.ios = append(st.ios, float64(a.io))
	}
	st.elapsed = time.Since(start).Seconds()
	return st
}

// checkSamples fails the run when a timed loop measured fewer than
// minSamples ops.
func checkSamples(rc *runCtx, done int) {
	rc.check(done >= minSamples, "the timed loop measured %d ops in 1.5 times the %g s window, fewer than the %d its p90 needs", done, rc.seconds, minSamples)
}

// runLibrary runs a library workload: set-up, verified warm-up, the timed
// loop (and in a traced run a second, traced loop plus the layer probes),
// then the leak checks.
func runLibrary(rc *runCtx, spec libSpec) error {
	ctx := context.Background()
	r := rand.New(rand.NewSource(rc.seed))
	objs := spec.gen(r, spec.n)
	shapes := jitterShapes(r, spec.shapes)
	order := r.Perm(len(shapes))
	dir, err := os.MkdirTemp(rc.workdir, "lib-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Set-up: the first half of the timed dataset loads into one engine;
	// the last dataset loaded serves the workload.
	eng, err := maxrs.NewEngine(spec.options(dir))
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			_ = eng.Close()
		}
	}()
	setups, ds, err := timeLoads(ctx, eng, objs, setupReps/2+1, true)
	if err != nil {
		return err
	}

	// Warm-up: one of each (kind, shape), verified against the oracle in
	// untimed set-up; the timed loop then checks every answer against it.
	exp := map[opKey]answer{}
	var keys []opKey
	for _, k := range spec.kinds {
		for s := range shapes {
			a, err := doQuery(ctx, eng, ds, k, shapes[s])
			if err != nil {
				return fmt.Errorf("warm-up %s %v: %w", k, shapes[s], err)
			}
			exp[opKey{k, s}] = a
			keys = append(keys, opKey{k, s})
		}
	}
	g := toGeom(objs)
	verErr := make([]error, len(keys))
	parallelFor(len(keys), func(i int) {
		verErr[i] = verify(g, keys[i].k, shapes[keys[i].s], exp[keys[i]])
	})
	for _, err := range verErr {
		if err != nil {
			rc.attempted++
			rc.fail("oracle: %v", err)
		}
	}
	rc.notef("oracle: %d (kind, size) answers verified against sweep.MaxRS in set-up", len(keys))

	// Every timed op repeats the exact transfers of its warm-up, so the
	// rotation's mean is the per-query count, whatever the loop's length.
	var io float64
	for _, a := range exp {
		io += float64(a.io)
	}
	io /= float64(len(exp))
	// Peak RSS covers the timed loop: set-up garbage is returned to the
	// OS and the high-water mark reset first.
	debug.FreeOSMemory()
	rssNote := resetPeakRSS()
	steal, cpu := hostSteal(), processCPU()
	st := libLoop(rc, nil, eng, ds, spec, shapes, order, exp)
	checkSamples(rc, st.done)
	rc.notef("host steal: %.1f%% of the VM's CPU time during the timed loop; this process used %.4g CPU ms per query",
		100*steal(), cpu()*1e3/float64(max(st.done, 1)))
	if !rc.traced {
		reportLoop(rc, st, io)
		rc.set("peak_rss_mb", vmHWM("self"))
		rc.notef("  base: %s", rssNote)
		more, _, err := timeLoads(ctx, eng, objs, setupReps/2, false)
		if err != nil {
			return err
		}
		reportSetup(rc, append(setups, more...))
	} else {
		if err := tracedLibrary(rc, eng, ds, spec, shapes, order, exp, st); err != nil {
			return err
		}
		pr := probeSpec{objs: objs, shapes: shapes, eng: eng, ds: ds, opts: spec.options, onDisk: spec.onDisk, memory: spec.memory, dir: dir}
		if err := probeLayers(rc, pr, false); err != nil {
			return err
		}
	}
	if rc.failed == 0 {
		rc.notef("exact counts: every repeat of the %d (kind, size) pairs moved exactly the blocks its warm-up did", len(keys))
	}

	// Leaks: the dataset's blocks only, then none, then no stray files.
	rc.check(eng.BlocksInUse() == ds.Blocks(), "%d blocks in use after the workload, want the dataset's %d", eng.BlocksInUse(), ds.Blocks())
	if err := ds.Release(); err != nil {
		return err
	}
	rc.check(eng.BlocksInUse() == 0, "%d blocks in use after releasing the dataset", eng.BlocksInUse())
	closed = true
	if err := eng.Close(); err != nil {
		return err
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	rc.check(len(left) == 0, "%d stray files left in the on-disk directory", len(left))
	return nil
}

// timeLoads loads objs into eng n times, each from a collected heap, and
// returns each load's time in seconds. It releases every dataset but the
// last, which it returns when keep is set.
func timeLoads(ctx context.Context, eng *maxrs.Engine, objs []maxrs.Object, n int, keep bool) ([]float64, *maxrs.Dataset, error) {
	var times []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		d, err := eng.Load(ctx, objs)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if keep && i == n-1 {
			return times, d, nil
		}
		if err := d.Release(); err != nil {
			return nil, nil, err
		}
	}
	return times, nil, nil
}

// reportSetup sets setup_s, the median of a run's set-up times.
func reportSetup(rc *runCtx, setups []float64) {
	rc.set("setup_s", median(setups))
	ss := sortedCopy(setups)
	rc.notef("  base: median of %d set-ups, half before and half after the timed loop (min %.4g s, max %.4g s)", len(ss), ss[0], ss[len(ss)-1])
}

// reportLoop sets the end-to-end metrics of a timed loop; io is the
// mean counted transfers per query.
func reportLoop(rc *runCtx, st loopStats, io float64) {
	sum := summarize(st.lat)
	rc.notef("query latency: %s", fmtSummary(sum, "ms"))
	rc.set("query_ms.p50", sum.P50)
	rc.set("query_ms.p90", sum.P90)
	rc.set("ops_per_s", float64(st.done)/st.elapsed)
	rc.set("io_blocks_per_query", io)
	rc.notef("error_share %.4g (%d failed of %d attempted)", float64(rc.failed)/float64(max(rc.attempted, 1)), rc.failed, rc.attempted)
}

// tracedLibrary runs the traced loop after the untraced one, under a CPU
// profile, and reports the loop-level per-layer figures.
func tracedLibrary(rc *runCtx, eng *maxrs.Engine, ds *maxrs.Dataset, spec libSpec, shapes []shape, order []int, exp map[opKey]answer, plain loopStats) error {
	io0, phys0 := eng.Stats(), eng.PhysIO()
	pr0, pw0 := eng.PipelineStats()
	stop, err := startProfile(rc)
	if err != nil {
		return err
	}
	g0 := readGo()
	st := libLoop(rc, rc.tracer, eng, ds, spec, shapes, order, exp)
	g1 := readGo()
	checkSamples(rc, st.done)
	if err := stop(); err != nil {
		return err
	}
	io1, phys1 := eng.Stats(), eng.PhysIO()
	pr1, pw1 := eng.PipelineStats()
	q := float64(max(st.done, 1))
	rc.set("em.phys_read_bytes_per_query", float64(phys1.ReadBytes-phys0.ReadBytes)/q)
	rc.set("em.phys_write_bytes_per_query", float64(phys1.WriteBytes-phys0.WriteBytes)/q)
	counted := float64(io1.Total() - io0.Total())
	rc.set("em.pipeline_overlap", float64(pr1-pr0+pw1-pw0)/math.Max(counted, 1))
	rc.notef("  base: %.0f counted transfers over %d traced queries", counted, st.done)
	reportGo(rc, g0, g1, st.done)
	reportOverhead(rc, plain, st)
	return nil
}

// goSnap is a reading of the Go runtime's counters; two of them bound a
// measurement window.
type goSnap struct {
	alloc, numGC    uint64
	gcCPU, availCPU float64 // seconds
}

func readGo() goSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return goSnap{alloc: ms.TotalAlloc, numGC: uint64(ms.NumGC), gcCPU: s[0].Value.Float64(), availCPU: s[1].Value.Float64()}
}

// reportGo sets the Go runtime figures over a window of n queries: the
// bytes allocated per query, and the GC's share of the CPU time
// available to the process (GOMAXPROCS × wall time) in the window.
func reportGo(rc *runCtx, w0, w1 goSnap, n int) {
	rc.set("go.alloc_bytes_per_query", float64(w1.alloc-w0.alloc)/float64(max(n, 1)))
	rc.set("go.gc_cpu_fraction", (w1.gcCPU-w0.gcCPU)/math.Max(w1.availCPU-w0.availCPU, 1e-9))
	rc.notef("  base: %d queries; %d GC cycles in the window", n, w1.numGC-w0.numGC)
}

// reportOverhead sets the tracing overhead: the traced loop's median
// latency minus the untraced loop's, both in this run.
func reportOverhead(rc *runCtx, plain, traced loopStats) {
	p, t := median(plain.lat), median(traced.lat)
	rc.set("trace.overhead_ms", t-p)
	rc.notef("  base: untraced p50 %.4g ms (n=%d), traced p50 %.4g ms (n=%d, spans + CPU profile)", p, len(plain.lat), t, len(traced.lat))
}

// parallelFor runs f(0..n-1) on GOMAXPROCS goroutines and waits.
func parallelFor(n int, f func(int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

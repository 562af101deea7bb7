package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"maxrs"
	"maxrs/internal/core"
	"maxrs/internal/em"
	"maxrs/internal/extsort"
	"maxrs/internal/geom"
	"maxrs/internal/rec"
	"maxrs/internal/sweep"
)

// This file holds the traced run's layer probes: direct calls into one
// layer at a time (core, extsort, sweep, em, the planner, the delta
// layer) on the workload's own objects and sizes, each inside a span.
// They run only in the traced run, after the timed loops.

// probeReps is how many times each probe repeats per size; the reported
// figure is the median.
const probeReps = 5

// blockSize is the EM block size B every engine in the benchmark uses
// (the paper's 4 KB default).
const blockSize = 4096

// Replay of the serve script against a library dataset: replayMutations
// insert and delete batches of replayBatch objects with the script's
// queries between them; the delta is compacted once replayCompactAt
// entries are pending — maxrsd's default background threshold.
const (
	replayMutations = 48
	replayBatch     = 96
	replayCompactAt = 1024
)

// probeSpec is what the probes need from the workload.
type probeSpec struct {
	objs   []maxrs.Object
	shapes []shape
	eng    *maxrs.Engine // the workload's engine and dataset
	ds     *maxrs.Dataset
	opts   func(dir string) *maxrs.Options
	onDisk bool
	memory int
	dir    string
}

// spanned times f inside a root span and a child span named name.
func spanned(rc *runCtx, op int64, name string, f func() error) (float64, error) {
	root := rc.tracer.Begin(op, -1, "probe."+name)
	c := rc.tracer.Begin(op, root, name)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	rc.tracer.End(c)
	rc.tracer.End(root)
	return float64(d.Nanoseconds()), err
}

func lessEventY(a, b rec.PieceEvent) bool { return a.Y() < b.Y() }

// probeLayers runs every layer probe and sets the per-layer metrics;
// profile is passed on to replayDelta, the last probe.
func probeLayers(rc *runCtx, p probeSpec, profile bool) error {
	op := int64(1) << 40 // probe op ids sit above every loop op id
	next := func() int64 { op++; return op }
	if err := probeLower(rc, p, next); err != nil {
		return err
	}
	return replayDelta(rc, p, next, profile)
}

// probeLower runs the probes of the maxrs front door, the planner and
// the core, extsort, em and sweep layers.
func probeLower(rc *runCtx, p probeSpec, next func() int64) error {
	ctx := context.Background()
	shapes := p.shapes[:2]

	// maxrs: every query kind through the engine.
	engNS := map[kind][]float64{}
	best := map[shape]float64{} // MaxRS score per probe size
	for _, k := range []kind{kMaxRS, kTopK, kCountRS, kMinRS, kMaxCRS} {
		for _, s := range shapes {
			for i := 0; i < probeReps; i++ {
				var a answer
				d, err := spanned(rc, next(), "maxrs."+k.String(), func() (err error) {
					a, err = doQuery(ctx, p.eng, p.ds, k, s)
					return err
				})
				if err != nil {
					return fmt.Errorf("probe %s: %w", k, err)
				}
				engNS[k] = append(engNS[k], d)
				if k == kMaxRS {
					best[s] = a.scores[0]
				}
			}
		}
		rc.set("maxrs.query_ms."+k.String(), median(engNS[k])/1e6)
	}

	// plan: Explain runs the planQuery every query runs, and nothing else.
	var explainNS []float64
	for i := 0; i < 50; i++ {
		d, err := spanned(rc, next(), "plan.Explain", func() error {
			_, err := p.eng.Explain(ctx, p.ds, shapes[i%2].w, shapes[i%2].h)
			return err
		})
		if err != nil {
			return fmt.Errorf("probe explain: %w", err)
		}
		explainNS = append(explainNS, d)
	}
	rc.set("plan.explain_us", median(explainNS)/1e3)

	// A private disk of the engine's kind for the lower layers.
	var disk *em.Disk
	var err error
	if p.onDisk {
		disk, err = em.NewFileBackedDisk(p.dir, blockSize)
	} else {
		disk, err = em.NewDisk(blockSize)
	}
	if err != nil {
		return err
	}
	defer disk.Close()
	env := em.Env{Disk: disk, M: p.memory}
	recs := make([]rec.Object, len(p.objs))
	for i, o := range p.objs {
		recs[i] = rec.Object{X: o.X, Y: o.Y, W: o.Weight}
	}
	objFile, err := em.WriteAllEnv(env, rec.ObjectCodec{}, recs)
	if err != nil {
		return err
	}

	// core: the solver alone on the same objects and sizes; the engine's
	// MaxRS minus this is the front door's per-query cost.
	solver, err := core.NewSolver(env, core.Config{})
	if err != nil {
		return err
	}
	var coreNS, coreIO []float64
	for _, s := range shapes {
		for i := 0; i < probeReps; i++ {
			sc := &em.ScopeStats{}
			var res sweep.Result
			d, err := spanned(rc, next(), "core.SolveObjectsScoped", func() (err error) {
				res, err = solver.SolveObjectsScoped(ctx, objFile, s.w, s.h, sc)
				return err
			})
			if err != nil {
				return fmt.Errorf("probe core: %w", err)
			}
			rc.check(res.Sum == best[s], "core solve %v scored %g, the engine %g", s, res.Sum, best[s])
			coreNS = append(coreNS, d)
			coreIO = append(coreIO, float64(sc.Stats().Total()))
		}
	}
	rc.set("core.solve_ms", median(coreNS)/1e6)
	rc.set("core.io_blocks", median(coreIO))
	rc.set("maxrs.overhead_ms", (median(engNS[kMaxRS])-median(coreNS))/1e6)
	rc.notef("  base: engine MaxRS p50 %.4g ms vs core solve p50 %.4g ms over the same %d sizes × %d", median(engNS[kMaxRS])/1e6, median(coreNS)/1e6, len(shapes), probeReps)

	// The root piece-event file of the first size.
	s0 := shapes[0]
	evs := make([]rec.PieceEvent, 0, 2*len(recs))
	for _, o := range recs {
		b, t := rec.PieceEventsOf(rec.FromObject(o, s0.w, s0.h))
		evs = append(evs, b, t)
	}
	evFile, err := em.WriteAllEnv(env, rec.PieceEventCodec{}, evs)
	if err != nil {
		return err
	}

	// extsort: the root event sort at the same B and M.
	var sortNS, sortIO []float64
	for i := 0; i < probeReps; i++ {
		before := disk.Stats()
		var out *em.File
		d, err := spanned(rc, next(), "extsort.SortP", func() (err error) {
			out, err = extsort.SortP(env, evFile, rec.PieceEventCodec{}, lessEventY, 0)
			return err
		})
		if err != nil {
			return fmt.Errorf("probe extsort: %w", err)
		}
		sortIO = append(sortIO, float64(disk.Stats().Sub(before).Total()))
		sortNS = append(sortNS, d)
		if i == 0 {
			got, err := em.ReadAll(out, rec.PieceEventCodec{})
			if err != nil {
				return err
			}
			rc.check(len(got) == len(evs) && sort.SliceIsSorted(got, func(a, b int) bool { return lessEventY(got[a], got[b]) }),
				"extsort output of %d events is not the sorted input of %d", len(got), len(evs))
		}
		if err := out.Release(); err != nil {
			return err
		}
	}
	rc.set("extsort.sort_ms", median(sortNS)/1e6)
	rc.set("extsort.io_blocks", median(sortIO))
	rc.notef("  base: %d piece events (%d blocks) sorted with M = %d B", len(evs), evFile.Blocks(), p.memory)

	// em: a sequential record writer and reader over a file the size of
	// the root event file.
	var wNS, rNS []float64
	for i := 0; i < probeReps; i++ {
		f := env.NewFile()
		dw, err := spanned(rc, next(), "em.RecordWriter", func() error {
			w, err := em.NewRecordWriter(f, rec.PieceEventCodec{})
			if err != nil {
				return err
			}
			if err := w.WriteBatch(evs); err != nil {
				return err
			}
			return w.Close()
		})
		if err != nil {
			return fmt.Errorf("probe em write: %w", err)
		}
		n := 0
		dr, err := spanned(rc, next(), "em.RecordReader", func() error {
			rr, err := em.NewRecordReader(f, rec.PieceEventCodec{})
			if err != nil {
				return err
			}
			for {
				if _, err := rr.Read(); err == io.EOF {
					return nil
				} else if err != nil {
					return err
				}
				n++
			}
		})
		if err != nil {
			return fmt.Errorf("probe em read: %w", err)
		}
		rc.check(n == len(evs), "em reader returned %d of %d records", n, len(evs))
		wNS = append(wNS, dw/float64(f.Blocks()))
		rNS = append(rNS, dr/float64(f.Blocks()))
		if err := f.Release(); err != nil {
			return err
		}
	}
	rc.set("em.block_write_us", median(wNS)/1e3)
	rc.set("em.block_read_us", median(rNS)/1e3)

	// sweep: the in-memory algorithm whole, and its slab sweep on
	// rectangles already sorted by y, which separates the sweep from the
	// sort inside it.
	g := toGeom(p.objs)
	rects := make([]rec.WRect, len(recs))
	for i, o := range recs {
		rects[i] = rec.FromObject(o, s0.w, s0.h)
	}
	sort.Slice(rects, func(a, b int) bool { return rects[a].Y1 < rects[b].Y1 })
	full := geom.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
	var swNS, slNS []float64
	for i := 0; i < probeReps; i++ {
		var res sweep.Result
		d, _ := spanned(rc, next(), "sweep.MaxRS", func() error { res = sweep.MaxRS(g, s0.w, s0.h); return nil })
		rc.check(res.Sum == best[s0], "sweep.MaxRS scored %g, the engine %g", res.Sum, best[s0])
		swNS = append(swNS, d)
		var tuples []rec.Tuple
		d, _ = spanned(rc, next(), "sweep.Slab", func() error { tuples = sweep.Slab(rects, full); return nil })
		rc.check(sweep.BestRegion(tuples).Sum == best[s0], "sweep.Slab scored %g, the engine %g", sweep.BestRegion(tuples).Sum, best[s0])
		slNS = append(slNS, d)
	}
	rc.set("sweep.maxrs_ms", median(swNS)/1e6)
	rc.set("sweep.slab_ms", median(slNS)/1e6)

	if err := errors.Join(evFile.Release(), objFile.Release()); err != nil {
		return err
	}
	rc.check(disk.InUse() == 0, "probe disk holds %d blocks after the probes", disk.InUse())
	return nil
}

// replayDelta replays serveScript, as one client runs it against
// maxrsd, through Dataset.Insert, Delete and Compact and Engine.MaxRS and
// TopK on a fresh library dataset of the workload's objects, compacting
// once replayCompactAt entries are pending as maxrsd's background
// compactor does. It stops after replayMutations mutation batches and
// checks the final state against a reload of the effective object set.
// With profile set, a CPU profile and the Go runtime figures cover the
// replayed ops and nothing else.
func replayDelta(rc *runCtx, p probeSpec, next func() int64, profile bool) error {
	ctx := context.Background()
	opts := p.opts(p.dir)
	opts.DeltaCompactAt = -1 // compaction runs explicitly, as maxrsd's background compactor runs it
	eng, err := maxrs.NewEngine(opts)
	if err != nil {
		return err
	}
	defer eng.Close()
	ds, err := eng.Load(ctx, p.objs)
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(rc.seed ^ 0x5eed))
	res0, err := eng.MaxRS(ctx, ds, p.shapes[0].w, p.shapes[0].h)
	if err != nil {
		return err
	}
	opt := res0.Location
	var live []insertedBatch
	var insNS, delNS, compNS []float64
	queries, withDelta, combined, rare := 0, 0, 0, 0

	var g0 goSnap
	stop := func() error { return nil }
	if profile {
		if stop, err = startProfile(rc); err != nil {
			return err
		}
		g0 = readGo()
	}
	for pos := 0; len(insNS)+len(delNS) < replayMutations; pos++ {
		so := serveScript[pos%len(serveScript)]
		switch so.op {
		case "maxrs", "topk":
			si := so.shape
			if si < 0 {
				si = 2 + rare%(len(p.shapes)-2)
				rare++
			}
			s := p.shapes[si]
			var res []maxrs.Result
			_, err := spanned(rc, next(), "maxrs."+so.op, func() (err error) {
				if so.op == "topk" {
					res, err = eng.TopK(ctx, ds, s.w, s.h, serveTopK)
					return err
				}
				var one maxrs.Result
				one, err = eng.MaxRS(ctx, ds, s.w, s.h)
				res = []maxrs.Result{one}
				return err
			})
			if err != nil {
				return fmt.Errorf("replay %s: %w", so.op, err)
			}
			queries++
			if d := res[0].Plan.Delta; d != nil {
				withDelta++
				if d.Path == "combined" {
					combined++
				}
			}
			if si == 0 {
				opt = res[0].Location
			}
			continue
		case "delete":
			if len(live) == 0 {
				continue
			}
			b := live[0]
			live = live[1:]
			d, err := spanned(rc, next(), "delta.Delete", func() error {
				_, err := ds.Delete(ctx, b.ids)
				return err
			})
			if err != nil {
				return fmt.Errorf("replay delete: %w", err)
			}
			delNS = append(delNS, d)
		default:
			objs := insertBatch(r, replayBatch, opt, p.shapes[0], so.op == "insert-near")
			var ids []uint64
			d, err := spanned(rc, next(), "delta.Insert", func() (err error) {
				ids, err = ds.Insert(ctx, objs)
				return err
			})
			if err != nil {
				return fmt.Errorf("replay insert: %w", err)
			}
			insNS = append(insNS, d)
			live = append(live, insertedBatch{ids: ids, objs: objs})
		}
		if ds.Pending() >= replayCompactAt {
			d, err := spanned(rc, next(), "delta.Compact", func() error { return ds.Compact(ctx) })
			if err != nil {
				return fmt.Errorf("replay compact: %w", err)
			}
			compNS = append(compNS, d)
		}
	}
	if profile {
		g1 := readGo()
		if err := stop(); err != nil {
			return err
		}
		reportGo(rc, g0, g1, queries)
		rc.notef("  base: cpu.* and go.* cover this process's replay of the serve script (%d queries between %d inserts, %d deletes and %d compactions), not the maxrsd process",
			queries, len(insNS), len(delNS), len(compNS))
	}

	// The final state must answer as a reload of the effective set does.
	eff := append([]maxrs.Object(nil), p.objs...)
	for _, b := range live {
		eff = append(eff, b.objs...)
	}
	for _, s := range p.shapes[:2] {
		got, err := eng.MaxRS(ctx, ds, s.w, s.h)
		if err != nil {
			return err
		}
		want, err := maxrs.MaxRS(ctx, eff, s.w, s.h, nil)
		if err != nil {
			return err
		}
		rc.check(got.Score == want.Score, "replayed dataset scores %g at %v, a reload of its %d objects %g", got.Score, s, len(eff), want.Score)
	}
	rc.set("delta.insert_us", median(insNS)/1e3)
	rc.set("delta.delete_us", median(delNS)/1e3)
	rc.set("delta.compact_ms", median(compNS)/1e6)
	rc.set("delta.combined_share", float64(combined)/float64(max(withDelta, 1)))
	rc.set("delta.compactions", float64(ds.Compactions()))
	rc.notef("  base: %d combined of %d queries with a pending delta; %d inserts, %d deletes of %d objects each, %d compactions",
		combined, withDelta, len(insNS), len(delNS), replayBatch, len(compNS))
	if err := ds.Release(); err != nil {
		return err
	}
	rc.check(eng.BlocksInUse() == 0, "replay engine holds %d blocks after release", eng.BlocksInUse())
	return nil
}

// startProfile starts a CPU profile; the returned stop writes it next to
// the spans and sets the cpu.* shares.
func startProfile(rc *runCtx) (func() error, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		path := filepath.Join(rc.outDir, fmt.Sprintf("%s-seed%d.cpu.pprof", rc.name, rc.seed))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
		traces, err := profileTraces(rc.pprof, path)
		if err != nil {
			return err
		}
		shares, total, other, err := cpuShares(traces)
		if err != nil {
			return err
		}
		for _, b := range cpuBuckets {
			if b != "other" {
				rc.set("cpu."+b, shares[b])
			}
		}
		pkgs := make([]string, 0, len(other))
		for p := range other {
			pkgs = append(pkgs, p)
		}
		sort.Slice(pkgs, func(i, j int) bool { return other[pkgs[i]] > other[pkgs[j]] })
		var top []string
		for _, p := range pkgs[:min(len(pkgs), 4)] {
			top = append(top, fmt.Sprintf("%s %.1f%%", p, 100*other[p]))
		}
		rc.notef("  base: %.3f s of sampled CPU; other %.1f%% (leaf packages: %s); profile %s",
			total.Seconds(), 100*shares["other"], strings.Join(top, ", "), path)
		return nil
	}, nil
}

// resetPeakRSS resets this process's VmHWM to its current RSS and says
// what the next vmHWM("self") covers.
func resetPeakRSS() string {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return "VmHWM since the process started (resetting it failed: " + err.Error() + ")"
	}
	return "VmHWM of this process over the timed loop"
}

// hostSteal starts measuring the share of this machine's CPU time the
// hypervisor stole (from /proc/stat); the returned function reads it.
// It explains run-to-run noise: stolen time stretches wall-clock figures.
func hostSteal() func() float64 {
	read := func() (steal, total float64) {
		b, err := os.ReadFile("/proc/stat")
		if err != nil {
			return 0, 0
		}
		line, _, _ := strings.Cut(string(b), "\n")
		for i, f := range strings.Fields(line)[1:] {
			v, _ := strconv.ParseFloat(f, 64)
			total += v
			if i == 7 {
				steal = v
			}
		}
		return steal, total
	}
	s0, t0 := read()
	return func() float64 {
		s1, t1 := read()
		if t1 <= t0 {
			return 0
		}
		return (s1 - s0) / (t1 - t0)
	}
}

// processCPU starts measuring this process's CPU time (user plus
// system); the returned function reads the seconds used since.
func processCPU() func() float64 {
	read := func() float64 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0
		}
		return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	c0 := read()
	return func() float64 { return read() - c0 }
}

// vmHWM returns the peak resident set size of process pid ("self" for
// this one) in MB, from /proc.
func vmHWM(pid string) float64 {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

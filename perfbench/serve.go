package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"maxrs"
)

// serve-mixed: a maxrsd built from the same commit runs as a child
// process with -ondisk and otherwise default flags (result cache,
// background compaction at -deltacompact 1024, GOMAXPROCS workers). It
// serves serveN dyadic-weight objects around a hotspot: 24k piece
// events, just inside the 25.5k the default M holds, so a re-solve costs
// a tenth of a second and a 20 s window holds a few hundred queries (the
// external-memory path is external-uniform's to measure). Two closed-loop
// clients run the cyclic script below.
const (
	serveN       = 12000
	serveClients = 2
	// serveBatch objects per insert batch: large enough that the pending
	// delta passes the compaction threshold several times per run.
	serveBatch = 96
	// serveTopK is the k of every TopK query: one k keeps the TopK
	// latency mode narrow, and a cached TopK(3) still answers MaxRS of its
	// size by containment reuse.
	serveTopK = 3
	// serveCheckpoints splits the window: after each part both clients
	// pause and the server's answers are checked against a library reload
	// of the effective object set (the last check is at the end).
	serveCheckpoints = 3
	// serveSetupReps is how many times a run starts a server and loads
	// the dataset, half before the timed loop and half after the workload
	// (set-up time drifts with the host over seconds); setup_s is the
	// median.
	serveSetupReps = 41
)

// scriptOp is one step of a client's cyclic script: a query ("maxrs" or
// "topk") of serveShapes[shape] (shape < 0: the next of the rarely asked
// sizes), or a mutation batch ("insert-far", "insert-near", "delete").
type scriptOp struct {
	op    string
	shape int
}

// serveScript is the cycle every client runs, the second client starting
// half a cycle in. Ten of its fourteen ops are queries, four are mutation
// batches. Popular sizes repeat back to back, so the repeat is a cache
// hit or a containment reuse of the TopK just answered; the remaining
// queries re-solve. Each half-cycle first deletes the client's oldest
// live batch, then inserts one, so the effective set stays near its
// loaded size. Far inserts land a quarter of the space away from the
// optimum in y (the cache and the delta layer can keep their answers);
// near ones land on the optimum and force re-solves. The fixed cycle
// keeps each run's mix of cheap and expensive queries the same, which is
// what makes the medians repeat from run to run.
var serveScript = []scriptOp{
	{"delete", 0}, {"insert-far", 0},
	{"maxrs", 0}, {"maxrs", 0}, {"topk", 1}, {"maxrs", 1}, {"maxrs", -1},
	{"delete", 0}, {"insert-near", 0},
	{"topk", 0}, {"maxrs", 0}, {"maxrs", 1}, {"maxrs", 1}, {"maxrs", -1},
}

// serveShapes are the query sizes: the first two are the popular ones,
// the rest are asked in rotation.
var serveShapes = []shape{{40000, 40000}, {60000, 30000}, {30000, 60000}, {50000, 50000}, {80000, 40000}, {35000, 35000}, {45000, 70000}, {70000, 70000}}

// server is one maxrsd child process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	dir  string // its -ondiskdir
	done chan error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches maxrsd and waits for /v1/readyz.
func startServer(rc *runCtx, client *http.Client, root string, i int) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(root, fmt.Sprintf("disk%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(root, fmt.Sprintf("maxrsd%d.log", i)))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(rc.maxrsd, "-addr=127.0.0.1:"+strconv.Itoa(port), "-ondisk", "-ondiskdir="+dir)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should this process die without stopping the server, the kernel
	// kills the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://127.0.0.1:" + strconv.Itoa(port), dir: dir, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(s.base + "/v1/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			return nil, fmt.Errorf("maxrsd exited before ready: %v", err)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			_ = s.stop()
			return nil, errors.New("maxrsd not ready after 30 s")
		}
	}
}

// stop sends SIGTERM, waits for the exit (killing after 20 s), and
// reports a non-clean exit.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-s.done:
		return err
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return errors.New("maxrsd did not drain within 20 s; killed")
	}
}

// do sends one JSON request and decodes a 2xx reply into out; it returns
// the status code.
func do(client *http.Client, method, url string, body, out any) (int, error) {
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case []byte: // sent as is (a CSV upload)
		rd = bytes.NewReader(b)
	default:
		j, err := json.Marshal(b)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(j)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out != nil {
		return resp.StatusCode, json.Unmarshal(b, out)
	}
	return resp.StatusCode, nil
}

// Wire types of the maxrsd API, reduced to the fields the benchmark reads.
type (
	queryReq struct {
		Dataset string  `json:"dataset"`
		Op      string  `json:"op"`
		W       float64 `json:"w"`
		H       float64 `json:"h"`
		K       int     `json:"k,omitempty"`
	}
	queryResp struct {
		Cached  bool `json:"cached"`
		Reused  bool `json:"reused"`
		Results []struct {
			Location maxrs.Point `json:"location"`
			Score    float64     `json:"score"`
			Stats    struct {
				Total uint64 `json:"total"`
			} `json:"stats"`
			Plan *struct {
				Delta *struct {
					Path string `json:"path"`
				} `json:"delta"`
			} `json:"plan"`
		} `json:"results"`
	}
	objectJSON struct {
		X float64 `json:"x"`
		Y float64 `json:"y"`
		W float64 `json:"w"`
	}
	statsResp struct {
		BlocksInUse    int    `json:"blocks_in_use"`
		CacheHits      uint64 `json:"cache_hits"`
		CacheMisses    uint64 `json:"cache_misses"`
		CacheReuseHits uint64 `json:"cache_reuse_hits"`
		DeltaHits      uint64 `json:"delta_hits"`
		Total          uint64 `json:"total"`
		Pipeline       struct {
			Reads  uint64 `json:"reads"`
			Writes uint64 `json:"writes"`
		} `json:"pipeline"`
		Storage struct {
			PhysReadBytes  uint64 `json:"phys_read_bytes"`
			PhysWriteBytes uint64 `json:"phys_write_bytes"`
		} `json:"storage"`
	}
	datasetsResp struct {
		Datasets []struct {
			Name        string `json:"name"`
			Blocks      int    `json:"blocks"`
			Compactions uint64 `json:"compactions"`
		} `json:"datasets"`
	}
)

// insertedBatch is one acknowledged insert of a client.
type insertedBatch struct {
	ids  []uint64
	objs []maxrs.Object
}

// serveClient is one closed-loop client with its seeded script and the
// inserts it owns (deletes only ever remove these).
type serveClient struct {
	r    *rand.Rand
	pos  int // next step of serveScript
	rare int // rarely asked sizes asked so far
	live []insertedBatch
	opt  maxrs.Point // last seen optimum of the most popular size
	st   clientStats
}

// clientStats is what one client measured in one window.
type clientStats struct {
	queryMS, mutMS, hitMS []float64
	ios                   []float64
	shed, withDelta, comb int
	hits, topk            int
	done                  int
}

// serveRun is the state the two clients share.
type serveRun struct {
	rc     *runCtx
	client *http.Client
	srv    *server
	shapes []shape // serveShapes with this seed's jitter
	tr     *Tracer
	opID   atomic.Int64
	mu     sync.Mutex // guards rc's counters
}

// step runs the next op of c's script.
func (sr *serveRun) step(c *serveClient) {
	so := serveScript[c.pos%len(serveScript)]
	c.pos++
	switch so.op {
	case "maxrs", "topk":
		sr.query(c, so)
	case "delete":
		if len(c.live) > 0 {
			sr.mutate(c, so.op)
		}
	default:
		sr.mutate(c, so.op)
	}
}

// query sends one query op and records its latency and answer.
func (sr *serveRun) query(c *serveClient, so scriptOp) {
	si := so.shape
	if si < 0 {
		si = 2 + c.rare%(len(sr.shapes)-2)
		c.rare++
	}
	s := sr.shapes[si]
	req := queryReq{Dataset: "d", Op: so.op, W: s.w, H: s.h}
	if so.op == "topk" {
		req.K = serveTopK
	}
	op := sr.opID.Add(1)
	var resp queryResp
	root := sr.tr.Begin(op, -1, "op."+req.Op)
	call := sr.tr.Begin(op, root, "maxrsd.query")
	t0 := time.Now()
	status, err := do(sr.client, "POST", sr.srv.base+"/v1/query", req, &resp)
	d := float64(time.Since(t0).Nanoseconds()) / 1e6
	sr.tr.End(call)
	sr.tr.End(root)
	if err == nil && len(resp.Results) == 0 {
		err = fmt.Errorf("query %+v: no results", req)
	}
	sr.count(c, status, err)
	if err != nil {
		return
	}
	c.st.done++
	c.st.queryMS = append(c.st.queryMS, d)
	if resp.Cached || resp.Reused {
		c.st.hitMS = append(c.st.hitMS, d)
		c.st.hits++
	} else if req.Op == "topk" {
		c.st.topk++
	}
	var total uint64
	for _, r := range resp.Results {
		total += r.Stats.Total
	}
	c.st.ios = append(c.st.ios, float64(total))
	if p := resp.Results[0].Plan; !resp.Cached && !resp.Reused && p != nil && p.Delta != nil {
		c.st.withDelta++
		if p.Delta.Path == "combined" {
			c.st.comb++
		}
	}
	if si == 0 {
		c.opt = resp.Results[0].Location
	}
}

// mutate sends one mutation batch: a delete of the client's oldest live
// batch, or an insert far from or near the last seen optimum.
func (sr *serveRun) mutate(c *serveClient, kind string) {
	op := sr.opID.Add(1)
	var (
		status int
		err    error
		d      float64
	)
	root := sr.tr.Begin(op, -1, "op."+kind)
	if kind == "delete" {
		b := c.live[0]
		call := sr.tr.Begin(op, root, "maxrsd.delete")
		t0 := time.Now()
		status, err = do(sr.client, "POST", sr.srv.base+"/v1/datasets/d/delete", map[string]any{"ids": b.ids}, nil)
		d = float64(time.Since(t0).Nanoseconds()) / 1e6
		sr.tr.End(call)
		if err == nil {
			c.live = c.live[1:]
		}
	} else {
		objs := insertBatch(c.r, serveBatch, c.opt, sr.shapes[0], kind == "insert-near")
		body := make([]objectJSON, len(objs))
		for i, o := range objs {
			body[i] = objectJSON{X: o.X, Y: o.Y, W: o.Weight}
		}
		var resp struct {
			IDs []uint64 `json:"ids"`
		}
		call := sr.tr.Begin(op, root, "maxrsd.insert")
		t0 := time.Now()
		status, err = do(sr.client, "POST", sr.srv.base+"/v1/datasets/d/insert", map[string]any{"objects": body}, &resp)
		d = float64(time.Since(t0).Nanoseconds()) / 1e6
		sr.tr.End(call)
		if err == nil && len(resp.IDs) != len(objs) {
			err = fmt.Errorf("insert of %d objects returned %d ids", len(objs), len(resp.IDs))
		}
		if err == nil {
			c.live = append(c.live, insertedBatch{ids: resp.IDs, objs: objs})
		}
	}
	sr.tr.End(root)
	sr.count(c, status, err)
	if err == nil {
		c.st.done++
		c.st.mutMS = append(c.st.mutMS, d)
	}
}

// count records one attempted op and, on error, a failure; refusals
// (429 and 503) are also counted as shed.
func (sr *serveRun) count(c *serveClient, status int, err error) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.rc.attempted++
	if err != nil {
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			c.st.shed++
		}
		sr.rc.fail("%v", err)
	}
}

// serveLoop runs both clients for one measurement window split into
// serveCheckpoints parts, checking the server's answers after each part
// (untimed). It returns the measured seconds.
func (sr *serveRun) serveLoop(clients []*serveClient, base []maxrs.Object) (float64, error) {
	var measured time.Duration
	var queries atomic.Int64
	for part := 1; part <= serveCheckpoints; part++ {
		start := time.Now()
		partEnd := sr.rc.seconds * float64(part) / serveCheckpoints
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *serveClient) {
				defer wg.Done()
				for {
					el := (measured + time.Since(start)).Seconds()
					if el >= partEnd && (part < serveCheckpoints || loopDone(sr.rc, measured+time.Since(start), int(queries.Load()))) {
						return
					}
					before := len(c.st.queryMS)
					sr.step(c)
					queries.Add(int64(len(c.st.queryMS) - before))
				}
			}(c)
		}
		wg.Wait()
		measured += time.Since(start)
		if err := sr.checkpoint(clients, base); err != nil {
			return 0, err
		}
	}
	return measured.Seconds(), nil
}

// checkpoint compares the server's MaxRS and TopK answers for the most
// popular sizes with a library reload of the effective object set: the
// loaded objects plus every acknowledged, not yet deleted insert.
func (sr *serveRun) checkpoint(clients []*serveClient, base []maxrs.Object) error {
	eff := append([]maxrs.Object(nil), base...)
	for _, c := range clients {
		for _, b := range c.live {
			eff = append(eff, b.objs...)
		}
	}
	ctx := context.Background()
	for _, s := range sr.shapes[:3] {
		want, err := maxrs.MaxRS(ctx, eff, s.w, s.h, nil)
		if err != nil {
			return err
		}
		for _, req := range []queryReq{{Dataset: "d", Op: "maxrs", W: s.w, H: s.h}, {Dataset: "d", Op: "topk", W: s.w, H: s.h, K: 2}} {
			var resp queryResp
			_, err := do(sr.client, "POST", sr.srv.base+"/v1/query", req, &resp)
			sr.mu.Lock()
			sr.rc.attempted++
			switch {
			case err != nil:
				sr.rc.fail("checkpoint %+v: %v", req, err)
			case len(resp.Results) == 0 || resp.Results[0].Score != want.Score:
				sr.rc.fail("checkpoint %+v: server answered %+v, a reload of the %d effective objects scores %g", req, resp.Results, len(eff), want.Score)
			}
			sr.mu.Unlock()
		}
	}
	return nil
}

func csvOf(objs []maxrs.Object) []byte {
	var b bytes.Buffer
	for _, o := range objs {
		b.WriteString(strconv.FormatFloat(o.X, 'g', -1, 64))
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(o.Y, 'g', -1, 64))
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(o.Weight, 'g', -1, 64))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// runServe runs the serve-mixed workload.
func runServe(rc *runCtx) error {
	if rc.maxrsd == "" {
		return errors.New("serve-mixed needs -maxrsd")
	}
	r := rand.New(rand.NewSource(rc.seed))
	objs := hotspotObjects(r, serveN)
	body := csvOf(objs)
	root, err := os.MkdirTemp(rc.workdir, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}
	defer client.CloseIdleConnections()

	// Set-up: server start to readiness plus the dataset PUT, the first
	// half of the timed set-ups; the last server serves the workload.
	setups, srv, err := serveSetups(rc, client, root, body, 0, serveSetupReps/2+1, true)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = srv.stop()
		}
	}()

	sr := &serveRun{rc: rc, client: client, srv: srv, shapes: jitterShapes(r, serveShapes)}
	clients := make([]*serveClient, serveClients)
	var first queryResp
	if _, err := do(client, "POST", srv.base+"/v1/query", queryReq{Dataset: "d", Op: "maxrs", W: sr.shapes[0].w, H: sr.shapes[0].h}, &first); err != nil {
		return err
	}
	for i := range clients {
		clients[i] = &serveClient{
			r:   rand.New(rand.NewSource(rc.seed*1000 + int64(i) + 1)),
			pos: i * len(serveScript) / serveClients,
			opt: first.Results[0].Location,
		}
	}
	stats := func() (statsResp, error) {
		var st statsResp
		_, err := do(client, "GET", srv.base+"/v1/stats", nil, &st)
		return st, err
	}

	st0, err := stats()
	if err != nil {
		return err
	}
	steal := hostSteal()
	elapsed, err := sr.serveLoop(clients, objs)
	if err != nil {
		return err
	}
	checkSamples(rc, len(mergeQueries(clients)))
	rc.notef("host steal: %.1f%% of the VM's CPU time during the timed loop", 100*steal())
	st1, err := stats()
	if err != nil {
		return err
	}
	if !rc.traced {
		reportServe(rc, clients, elapsed, st0, st1)
		rc.set("peak_rss_mb", vmHWM(strconv.Itoa(srv.cmd.Process.Pid)))
		rc.notef("  base: the maxrsd process's VmHWM since it started")
	} else {
		plain := mergeQueries(clients)
		// The traced window continues the same scripts with spans on.
		for _, c := range clients {
			c.st = clientStats{}
		}
		sr.tr = rc.tracer
		st0 = st1
		if _, err := sr.serveLoop(clients, objs); err != nil {
			return err
		}
		if st1, err = stats(); err != nil {
			return err
		}
		traced := mergeQueries(clients)
		checkSamples(rc, len(traced))
		reportServeLayers(rc, clients, st0, st1)
		reportOverhead(rc, loopStats{lat: plain}, loopStats{lat: traced})
	}
	var dl datasetsResp
	if _, err := do(client, "GET", srv.base+"/v1/datasets", nil, &dl); err != nil {
		return err
	}
	if len(dl.Datasets) == 1 {
		rc.notef("background compactions: %d this run", dl.Datasets[0].Compactions)
	}
	if rc.traced {
		if err := serveProbes(rc, objs, sr.shapes, root); err != nil {
			return err
		}
	}

	// Leaks: once the compactor is idle the server holds only the
	// dataset's blocks, none after DELETE, and no files after shutdown.
	leak := func(want func() (int, error)) (int, int, error) {
		var got, w int
		for i := 0; i < 50; i++ {
			st, err := stats()
			if err != nil {
				return 0, 0, err
			}
			if w, err = want(); err != nil {
				return 0, 0, err
			}
			if got = st.BlocksInUse; got == w {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		return got, w, nil
	}
	got, want, err := leak(func() (int, error) {
		var dl datasetsResp
		_, err := do(client, "GET", srv.base+"/v1/datasets", nil, &dl)
		if err != nil || len(dl.Datasets) != 1 {
			return -1, errors.Join(err, fmt.Errorf("want one dataset, got %d", len(dl.Datasets)))
		}
		return dl.Datasets[0].Blocks, nil
	})
	if err != nil {
		return err
	}
	rc.check(got == want, "maxrsd holds %d blocks after the workload, want the dataset's %d", got, want)
	if _, err := do(client, "DELETE", srv.base+"/v1/datasets/d", nil, nil); err != nil {
		return err
	}
	got, _, err = leak(func() (int, error) { return 0, nil })
	if err != nil {
		return err
	}
	rc.check(got == 0, "maxrsd holds %d blocks after DELETE", got)
	stopped = true
	if err := srv.stop(); err != nil {
		return fmt.Errorf("maxrsd shutdown: %w", err)
	}
	left, err := os.ReadDir(srv.dir)
	if err != nil {
		return err
	}
	rc.check(len(left) == 0, "maxrsd left %d files in its -ondiskdir after shutdown", len(left))
	if !rc.traced {
		more, _, err := serveSetups(rc, client, root, body, serveSetupReps/2+1, serveSetupReps/2, false)
		if err != nil {
			return err
		}
		reportSetup(rc, append(setups, more...))
	}
	return nil
}

// serveSetups starts a server and loads the dataset n times, timing each
// from starting the process to the PUT's reply. It stops every server
// but the last, which it returns when keep is set; first numbers the
// servers' directories.
func serveSetups(rc *runCtx, client *http.Client, root string, body []byte, first, n int, keep bool) ([]float64, *server, error) {
	var times []float64
	for i := first; i < first+n; i++ {
		t0 := time.Now()
		s, err := startServer(rc, client, root, i)
		if err != nil {
			return nil, nil, err
		}
		if _, err := do(client, "PUT", s.base+"/v1/datasets/d", body, nil); err != nil {
			return nil, nil, errors.Join(err, s.stop())
		}
		times = append(times, time.Since(t0).Seconds())
		if keep && i == first+n-1 {
			return times, s, nil
		}
		if err := s.stop(); err != nil {
			return nil, nil, fmt.Errorf("maxrsd shutdown: %w", err)
		}
		left, _ := os.ReadDir(s.dir)
		rc.check(len(left) == 0, "maxrsd left %d files in its -ondiskdir after shutdown", len(left))
	}
	return times, nil, nil
}

func mergeQueries(clients []*serveClient) []float64 {
	var out []float64
	for _, c := range clients {
		out = append(out, c.st.queryMS...)
	}
	return out
}

// reportServe sets the end-to-end metrics of the serve loop and prints
// the serve-only figures.
func reportServe(rc *runCtx, clients []*serveClient, elapsed float64, st0, st1 statsResp) {
	var q, mut, ios []float64
	done := 0
	for _, c := range clients {
		q = append(q, c.st.queryMS...)
		mut = append(mut, c.st.mutMS...)
		ios = append(ios, c.st.ios...)
		done += c.st.done
	}
	reportLoop(rc, loopStats{lat: q, elapsed: elapsed, done: done}, mean(ios))
	ms := summarize(mut)
	rc.notef("mutation_ms (insert and delete batches of %d): %s", serveBatch, fmtSummary(ms, "ms"))
	rc.notef("%-34s %14.6g ms", "mutation_ms.p50", ms.P50)
	rc.notef("%-34s %14.6g ms", "mutation_ms.p90", ms.P90)
	q1, q3 := quartiles(ios)
	rc.notef("io_blocks_per_query spread within the run (varies with compaction timing): q1 %g, median %g, q3 %g", q1, median(ios), q3)
	reportServeCache(rc, clients, st0, st1)
}

// reportServeCache prints the maxrsd layer's figures with their bases.
func reportServeCache(rc *runCtx, clients []*serveClient, st0, st1 statsResp) {
	var hit []float64
	shed, withDelta, comb, hits, topk, n := 0, 0, 0, 0, 0, 0
	for _, c := range clients {
		hits += c.st.hits
		topk += c.st.topk
		n += len(c.st.queryMS)
		hit = append(hit, c.st.hitMS...)
		shed += c.st.shed
		withDelta += c.st.withDelta
		comb += c.st.comb
	}
	lookups := float64(st1.CacheHits - st0.CacheHits + st1.CacheMisses - st0.CacheMisses)
	rc.notef("maxrsd.cache_hit_share %.4g of %.0f cache lookups", float64(st1.CacheHits-st0.CacheHits)/max(lookups, 1), lookups)
	rc.notef("maxrsd.reuse_share %.4g of %.0f cache lookups", float64(st1.CacheReuseHits-st0.CacheReuseHits)/max(lookups, 1), lookups)
	rc.notef("maxrsd.hit_ms p50 %.4g ms over %d cache-hit replies", median(hit), len(hit))
	rc.notef("maxrsd.shed %d (429/503 replies)", shed)
	rc.notef("query mix: %d queries: %d cache hits or reuses, %d uncached TopK, %d uncached MaxRS (%d combined)", n, hits, topk, n-hits-topk, comb)
	rc.notef("delta combined share at the server: %d of %d uncached queries with a pending delta (delta_hits +%d)", comb, withDelta, st1.DeltaHits-st0.DeltaHits)
}

// reportServeLayers sets the traced serve loop's storage figures from
// the server's counters.
func reportServeLayers(rc *runCtx, clients []*serveClient, st0, st1 statsResp) {
	n := 0
	for _, c := range clients {
		n += len(c.st.queryMS)
	}
	q := float64(max(n, 1))
	rc.set("em.phys_read_bytes_per_query", float64(st1.Storage.PhysReadBytes-st0.Storage.PhysReadBytes)/q)
	rc.set("em.phys_write_bytes_per_query", float64(st1.Storage.PhysWriteBytes-st0.Storage.PhysWriteBytes)/q)
	counted := float64(st1.Total - st0.Total)
	rc.set("em.pipeline_overlap", float64(st1.Pipeline.Reads-st0.Pipeline.Reads+st1.Pipeline.Writes-st0.Pipeline.Writes)/max(counted, 1))
	rc.notef("  base: %.0f counted transfers at the server over %d traced queries", counted, n)
	reportServeCache(rc, clients, st0, st1)
}

// serveProbes runs the layer probes on an in-process library engine
// configured as the server's (-ondisk, default B and M) over the same
// objects. The server's own process is not profiled, so the CPU profile
// and the Go runtime figures cover the probes' replay of the serve
// script in this process.
func serveProbes(rc *runCtx, objs []maxrs.Object, shapes []shape, root string) error {
	dir := filepath.Join(root, "probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	opts := func(d string) *maxrs.Options { return &maxrs.Options{OnDisk: true, OnDiskDir: d} }
	eng, err := maxrs.NewEngine(opts(dir))
	if err != nil {
		return err
	}
	defer eng.Close()
	ds, err := eng.Load(context.Background(), objs)
	if err != nil {
		return err
	}
	pr := probeSpec{objs: objs, shapes: shapes, eng: eng, ds: ds, opts: opts, onDisk: true, memory: 1 << 20, dir: dir}
	if err := probeLayers(rc, pr, true); err != nil {
		return err
	}
	return ds.Release()
}

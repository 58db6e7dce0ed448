package main

// The live half of a workload: lmserved's serve.Daemon in-process,
// driven by a fake clock, read over a loopback HTTP connection.
//
// Each rep restores the same checkpoint (days [0, SurveyDays) of the
// fleet), starts the daemon with one target per ISP and catches up the
// backlog (CatchupDays) in a closed loop: the clock stands at the end
// of the backlog, so every backlog record is released at once and the
// runners ingest as fast as they can. Most reps stop there. The live
// rep then runs the live phase in an open loop: the clock
// advances at a fixed rate of simulated bins per wall second, whatever
// the daemon does, while one HTTP connection reads the API at a fixed
// request rate.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	lastmile "github.com/last-mile-congestion/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/core"
	"github.com/last-mile-congestion/lastmile/internal/ioutil"
	"github.com/last-mile-congestion/lastmile/internal/serve"
	"github.com/last-mile-congestion/lastmile/internal/stream"
	"github.com/last-mile-congestion/lastmile/internal/telemetry"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

// liveParams fixes the live load.
type liveParams struct {
	// BinsPerSecond is the simulated bins the clock crosses per wall
	// second in the live phase; StepsPerBin is how many clock advances
	// make up one bin.
	BinsPerSecond float64
	StepsPerBin   int
	// Bins is the number of bin boundaries the live phase crosses.
	Bins int
	// Seed drives the clock's random step sizes.
	Seed uint64
	// APIPerSecond is the open-loop request rate of the one API
	// connection.
	APIPerSecond float64
	// Timeout bounds each wait on the daemon.
	Timeout time.Duration
}

// liveResult is what one workload's live half measured.
type liveResult struct {
	SetupS, CatchupS []float64
	FreshnessMs      []float64
	APIMs            []float64
	LiveCPUS         float64

	// For the traced run's layer metrics. LagMs is filled only when
	// traced; final is the live rep's drained daemon.
	LagMs       []float64
	LateMs      []float64
	Boundaries  int
	Refreshes   int64
	Checkpoints int64
	Dropped     int64
	EvictedBins int64
	final       *serve.Daemon
}

// live runs the live half of a workload.
type live struct {
	in     *Inputs
	enc    string
	params liveParams
	work   string
	tr     *Tracer
	ops    *opCounter
	logf   func(string, ...any)

	cfgPath string
	res     liveResult
}

// configPath writes the daemon config and returns its path.
func (lv *live) configPath() (string, error) {
	type target struct {
		Name   string  `json:"name"`
		ASN    bgp.ASN `json:"asn"`
		Source string  `json:"source"`
	}
	opts := liveStreamOptions()
	cfg := struct {
		StatePath      string   `json:"state_path"`
		Window         string   `json:"window"`
		BinWidth       string   `json:"bin_width"`
		MinTraceroutes int      `json:"min_traceroutes"`
		MaxLateness    string   `json:"max_lateness"`
		MaxConcurrent  int      `json:"max_concurrent"`
		Targets        []target `json:"targets"`
	}{
		StatePath:      lv.statePath(),
		Window:         opts.Window.String(),
		BinWidth:       opts.BinWidth.String(),
		MinTraceroutes: opts.MinTraceroutes,
		MaxLateness:    opts.MaxLateness.String(),
		MaxConcurrent:  len(lv.in.Targets),
	}
	for _, t := range lv.in.Targets {
		src, err := filepath.Abs(lv.in.LiveArchive(t.Name, lv.enc))
		if err != nil {
			return "", err
		}
		cfg.Targets = append(cfg.Targets, target{Name: t.Name, ASN: t.ASN, Source: src})
	}
	path := filepath.Join(lv.work, "lmserved.json")
	return path, writeJSONFile(path, cfg)
}

func (lv *live) statePath() string { return filepath.Join(lv.work, "lmserved.state") }

// harness owns one rep's fake clock and sources.
type harness struct {
	clock      *serve.FakeClock
	catchupEnd time.Time
	caught     chan time.Time
	delivered  atomic.Int64
	handed     sync.Map // target name -> *atomic.Int64
	srcErrs    atomic.Int64

	// advances logs the live phase's clock steps for ingest lag; nil
	// when untraced.
	advances *advanceLog
	lagMu    sync.Mutex
	lagMs    []float64
}

// open is the daemon's SourceOpener: Target.Source is an archive path.
func (h *harness) open(t serve.Target) (serve.Source, error) {
	f, err := os.Open(t.Source)
	if err != nil {
		return nil, err
	}
	n := &atomic.Int64{}
	h.handed.Store(t.Name, n)
	return &gatedSource{h: h, f: f, sc: lastmile.NewResultScanner(bufio.NewReaderSize(f, 1<<20)), handed: n}, nil
}

func (h *harness) handedOut(name string) int64 {
	if v, ok := h.handed.Load(name); ok {
		return v.(*atomic.Int64).Load()
	}
	return 0
}

// gatedSource reads a target archive through lastmile.NewResultScanner,
// as cmd/lmserved's file source does, but releases each result only
// once the fake clock has reached its timestamp.
type gatedSource struct {
	h      *harness
	f      *os.File
	sc     lastmile.ResultScanner
	handed *atomic.Int64
	// pending is true when the scanner holds a result not yet handed
	// out; caught is set once the source has parked on the clock.
	pending bool
	caught  bool
	// lastLive is the timestamp of the last handed-out live-phase
	// result, whose ingest lag the next Next call closes.
	lastLive time.Time
}

func (s *gatedSource) Next(ctx context.Context) (bgp.ASN, *traceroute.Result, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	if s.h.advances != nil && !s.lastLive.IsZero() {
		// The runner asks for the next result only after delivering
		// the last one to the engine.
		if due, ok := s.h.advances.dueAt(s.lastLive); ok {
			s.h.recordLag(time.Since(due))
		}
		s.lastLive = time.Time{}
	}
	if !s.pending {
		if !s.sc.Scan() {
			if err := s.sc.Err(); err != nil {
				s.h.srcErrs.Add(1)
				return 0, nil, err
			}
			return 0, nil, io.EOF
		}
		s.pending = true
	}
	r := s.sc.Result()
	for r.Timestamp.After(s.h.clock.Now()) {
		if !s.caught {
			// Parking means the whole backlog has been delivered.
			s.caught = true
			s.h.caught <- time.Now()
		}
		select {
		case <-s.h.clock.AfterTime(r.Timestamp):
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		}
	}
	s.pending = false
	s.handed.Add(1)
	s.h.delivered.Add(1)
	if r.Timestamp.After(s.h.catchupEnd) {
		s.lastLive = r.Timestamp
	}
	return s.sc.ASN(), r, nil
}

func (s *gatedSource) Close() error { return s.f.Close() }

func (h *harness) recordLag(d time.Duration) {
	h.lagMu.Lock()
	defer h.lagMu.Unlock()
	h.lagMs = append(h.lagMs, ms(d))
}

// advanceLog records, for each clock step of the live phase, the
// simulated time it reached and the wall time it was made.
type advanceLog struct {
	mu   sync.Mutex
	sim  []time.Time
	wall []time.Time
}

func (a *advanceLog) add(sim, wall time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sim = append(a.sim, sim)
	a.wall = append(a.wall, wall)
}

// dueAt returns the wall time of the first step that released ts.
func (a *advanceLog) dueAt(ts time.Time) (time.Time, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	i := sort.Search(len(a.sim), func(i int) bool { return !a.sim[i].Before(ts) })
	if i == len(a.sim) {
		return time.Time{}, false
	}
	return a.wall[i], true
}

// reps runs n reps into lv.res; with final set, the last of them runs
// the live phase and the final-verdict check.
func (lv *live) reps(n int, final bool, parent spanRef) error {
	if lv.cfgPath == "" {
		if err := os.MkdirAll(lv.work, 0o755); err != nil {
			return err
		}
		path, err := lv.configPath()
		if err != nil {
			return err
		}
		lv.cfgPath = path
	}
	for i := 0; i < n; i++ {
		if err := lv.rep(lv.cfgPath, final && i == n-1, &lv.res, parent); err != nil {
			return err
		}
	}
	return nil
}

// rep runs one set-up and catch-up, and on the final rep the live
// phase and the final-verdict check.
func (lv *live) rep(cfgPath string, final bool, res *liveResult, parent spanRef) error {
	span := lv.tr.Start("live.rep", parent)
	defer span.End()
	if err := copyFile(lv.statePath(), lv.in.Path("checkpoint.state")); err != nil {
		return err
	}
	h := &harness{
		clock:      serve.NewFakeClock(lv.in.CatchupEnd),
		catchupEnd: lv.in.CatchupEnd,
		caught:     make(chan time.Time, len(lv.in.Targets)),
	}
	if final && lv.tr != nil {
		h.advances = &advanceLog{}
	}
	reg := telemetry.NewRegistry()

	// Each timed stretch starts from a collected heap, so whether a GC
	// cycle lands inside it depends on the work, not on what ran before.
	runtime.GC()
	setup := lv.tr.Start("setup", span)
	t0 := time.Now()
	d, err := serve.New(cfgPath, serve.Options{Clock: h.clock, Open: h.open, Metrics: reg, Logf: lv.logf})
	if err != nil {
		return err
	}
	api, err := startAPI(d.Handler())
	if err != nil {
		return err
	}
	defer api.close()
	lv.ops.attempt()
	if err := api.waitHealthy(lv.params.Timeout); err != nil {
		lv.ops.fail(err)
		return err
	}
	res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	setup.End()
	restored := d.Monitor().Stats()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	runtime.GC()
	cpu0 := processCPU()
	catchup := lv.tr.Start("catchup", span)
	tRun := time.Now()
	go func() { runErr <- d.Run(ctx, nil) }()

	lv.ops.attempt()
	var caughtAt time.Time
	timeout := time.After(lv.params.Timeout)
	for i := 0; i < len(lv.in.Targets); i++ {
		select {
		case t := <-h.caught:
			if t.After(caughtAt) {
				caughtAt = t
			}
		case err := <-runErr:
			lv.ops.fail(fmt.Errorf("daemon stopped during catch-up: %v", err))
			return errors.New("live: daemon stopped during catch-up")
		case <-timeout:
			cancel()
			lv.ops.fail(fmt.Errorf("catch-up did not finish in %v (%d sources errored)", lv.params.Timeout, h.srcErrs.Load()))
			return errors.Join(errors.New("live: catch-up timed out"), <-runErr)
		}
	}
	res.CatchupS = append(res.CatchupS, caughtAt.Sub(tRun).Seconds())
	catchup.End()
	var backlogErrs []error
	for _, t := range lv.in.Targets {
		if got := h.handedOut(t.Name); got != int64(t.Backlog) {
			backlogErrs = append(backlogErrs, fmt.Errorf("%s delivered %d backlog results, archive has %d", t.Name, got, t.Backlog))
		}
	}
	lv.ops.failAll(backlogErrs)

	if final {
		catchupCPU := processCPU() - cpu0
		runtime.GC()
		cpu1 := processCPU()
		if err := lv.livePhase(d, h, api, reg, res, span); err != nil {
			cancel()
			return errors.Join(err, <-runErr)
		}
		res.LiveCPUS = (catchupCPU + processCPU() - cpu1).Seconds()
	}

	drain := lv.tr.Start("drain", span)
	cancel()
	if err := <-runErr; err != nil {
		lv.ops.attempt()
		lv.ops.fail(fmt.Errorf("daemon drain: %v", err))
	}
	drain.End()
	if n := h.srcErrs.Load(); n > 0 {
		lv.ops.attempt()
		lv.ops.fail(fmt.Errorf("%d target sources failed to read", n))
	}

	// Conservation: every handed-out observation reached the engine.
	st := d.Monitor().Stats()
	lv.ops.attempt()
	lv.ops.failAll(conservation{
		Delivered: h.delivered.Load(),
		Ingested:  st.Ingested - restored.Ingested,
		Dropped:   st.Dropped - restored.Dropped,
		Ignored:   reg.Counter("stream_ignored_total").Value(),
	}.check())
	if final {
		res.Dropped = st.Dropped - restored.Dropped
		res.EvictedBins = st.EvictedBins - restored.EvictedBins
		res.LagMs = h.lagMs
		res.final = d
		lv.ops.attempt()
		check := lv.tr.Start("check.replay", span)
		lv.ops.failAll(lv.checkReplay(d, h))
		check.End()
	}
	return nil
}

// livePhase runs the open-loop clock and API reader, and measures
// freshness.
func (lv *live) livePhase(d *serve.Daemon, h *harness, api *apiClient, reg *telemetry.Registry, res *liveResult, parent spanRef) error {
	span := lv.tr.Start("live", parent)
	defer span.End()
	p := lv.params
	binWidth := d.Monitor().BinWidth()
	wallStep := time.Duration(float64(time.Second) / (p.BinsPerSecond * float64(p.StepsPerBin)))
	catchupBin, _ := d.Monitor().NewestBin()
	refreshes0 := reg.Counter("serve_snapshot_refreshes_total").Value()
	checkpoints0 := reg.Counter("serve_checkpoints_total").Value()

	watch := startWatcher(d)
	defer watch.stop()

	// The API reader starts once the first refresh covering the
	// catch-up is published: until then the published snapshot is the
	// restored one, and /api/series may 404 for an AS the restored
	// window cannot classify. It runs until the clock has stopped.
	readerDone := make(chan struct{})
	stopReader := make(chan struct{})
	var samples []openLoopSample
	var reqErrs []error
	asns := make([]bgp.ASN, 0, len(lv.in.Targets))
	for _, t := range lv.in.Targets {
		asns = append(asns, t.ASN)
	}
	go func() {
		defer close(readerDone)
		select {
		case <-watch.reached(catchupBin):
		case <-stopReader:
			return
		}
		forever := time.Now().Add(24 * time.Hour)
		samples, reqErrs = runOpenLoop(time.Now(), time.Duration(float64(time.Second)/p.APIPerSecond), forever, stopReader, func(k int) error {
			path := "/api/verdicts"
			if k%2 == 1 {
				path = fmt.Sprintf("/api/series/%d", uint32(asns[(k/2)%len(asns)]))
			}
			return api.get(path)
		})
	}()

	// The clock, open loop: step k is due at start + k·wallStep
	// and advances the clock by an exponentially distributed amount
	// with mean binWidth/StepsPerBin. The rate averages BinsPerSecond,
	// but boundaries fall at random offsets against the daemon's tick:
	// with a regular clock the tick settles into one of a few phases
	// against the boundaries, and freshness then depends on which one a
	// run happens to start in. The phase crosses p.Bins boundaries and
	// stops short of the next, so the tick after the last one still
	// comes.
	rng := rand.New(rand.NewSource(int64(p.Seed)))
	mean := float64(binWidth) / float64(p.StepsPerBin)
	t0 := lv.in.CatchupEnd
	lastBoundary := t0.Add(time.Duration(p.Bins) * binWidth)
	limit := lastBoundary.Add(binWidth - time.Second)
	var crossed []time.Time
	var lateMs []float64
	start := time.Now()
	for k, sim := 1, t0; sim.Before(limit); k++ {
		due := start.Add(time.Duration(k) * wallStep)
		if dd := time.Until(due); dd > 0 {
			time.Sleep(dd)
		}
		now := time.Now()
		lateMs = append(lateMs, ms(now.Sub(due)))
		next := sim.Add(time.Duration(rng.ExpFloat64() * mean))
		if next.After(limit) {
			next = limit
		}
		if h.advances != nil {
			// Logged before the step, so a source released by it
			// always finds its due time.
			h.advances.add(next, now)
		}
		h.clock.Advance(next.Sub(sim))
		for b := sim.Sub(t0)/binWidth + 1; b <= next.Sub(t0)/binWidth; b++ {
			crossed = append(crossed, now)
			watch.expect(t0.Add(b * binWidth).Unix())
		}
		sim = next
	}
	// Every crossed boundary must be published; wait a bounded time.
	select {
	case <-watch.reached(lastBoundary.Unix()):
	case <-time.After(p.Timeout):
	}
	close(stopReader)
	<-readerDone
	watch.stop()

	res.Refreshes = reg.Counter("serve_snapshot_refreshes_total").Value() - refreshes0
	res.Checkpoints = reg.Counter("serve_checkpoints_total").Value() - checkpoints0
	res.Boundaries = len(crossed)
	pubs := watch.published()
	for j, at := range crossed {
		lv.ops.attempt()
		b := t0.Add(time.Duration(j+1) * binWidth).Unix()
		i := sort.Search(len(pubs), func(i int) bool { return pubs[i].bin >= b })
		if i == len(pubs) {
			lv.ops.fail(fmt.Errorf("boundary %s never published", time.Unix(b, 0).UTC().Format(time.RFC3339)))
			continue
		}
		res.FreshnessMs = append(res.FreshnessMs, ms(pubs[i].wall.Sub(at)))
	}
	latMs, reqLate := openLoopStats(samples)
	for i, err := range reqErrs {
		lv.ops.attempt()
		if err != nil {
			lv.ops.fail(err)
			continue
		}
		res.APIMs = append(res.APIMs, latMs[i])
	}
	res.LateMs = append(lateMs, reqLate...)
	return nil
}

// publication is one observed snapshot swap.
type publication struct {
	wall time.Time
	bin  int64
}

// watcher records each snapshot the daemon publishes with the wall time
// it was first seen. It polls only while a bin it was told to expect is
// unpublished, so between a publication and the next boundary it costs
// nothing.
type watcher struct {
	d     *serve.Daemon
	mu    sync.Mutex
	pubs  []publication
	waits []binWait
	// want is the newest bin expected; wake signals a raised want.
	want   int64
	wake   chan struct{}
	quit   chan struct{}
	done   chan struct{}
	closed sync.Once
}

type binWait struct {
	bin int64
	ch  chan struct{}
}

// watchPoll is the snapshot poll interval, the resolution of freshness.
const watchPoll = 500 * time.Microsecond

func startWatcher(d *serve.Daemon) *watcher {
	w := &watcher{d: d, want: math.MinInt64, wake: make(chan struct{}, 1),
		quit: make(chan struct{}), done: make(chan struct{})}
	go w.loop()
	return w
}

func (w *watcher) loop() {
	defer close(w.done)
	var last *serve.Snapshot
	for {
		if s := w.d.ReadSnapshot(); s != last {
			last = s
			w.publish(publication{wall: time.Now(), bin: s.Bin})
		}
		if w.satisfied() {
			select {
			case <-w.wake:
			case <-w.quit:
				return
			}
			continue
		}
		select {
		case <-w.quit:
			return
		default:
		}
		time.Sleep(watchPoll)
	}
}

// satisfied reports whether the expected bin has been published.
func (w *watcher) satisfied() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.pubs)
	return n > 0 && w.pubs[n-1].bin >= w.want
}

// expect makes the watcher poll until a snapshot at or past bin is
// published.
func (w *watcher) expect(bin int64) {
	w.mu.Lock()
	w.want = max(w.want, bin)
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

func (w *watcher) publish(p publication) {
	w.mu.Lock()
	defer w.mu.Unlock()
	// Keep the record monotone in bin, so the first publication at or
	// past a bin can be found by binary search.
	if n := len(w.pubs); n == 0 || p.bin > w.pubs[n-1].bin {
		w.pubs = append(w.pubs, p)
	}
	kept := w.waits[:0]
	for _, bw := range w.waits {
		if p.bin >= bw.bin {
			close(bw.ch)
		} else {
			kept = append(kept, bw)
		}
	}
	w.waits = kept
}

// reached returns a channel closed once a snapshot at or past bin has
// been published.
func (w *watcher) reached(bin int64) <-chan struct{} {
	ch := make(chan struct{})
	w.mu.Lock()
	if n := len(w.pubs); n > 0 && w.pubs[n-1].bin >= bin {
		close(ch)
	} else {
		w.waits = append(w.waits, binWait{bin: bin, ch: ch})
	}
	w.mu.Unlock()
	w.expect(bin)
	return ch
}

func (w *watcher) published() []publication {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]publication(nil), w.pubs...)
}

func (w *watcher) stop() {
	w.closed.Do(func() { close(w.quit) })
	<-w.done
}

// apiClient is one keep-alive loopback HTTP connection to the daemon.
type apiClient struct {
	base   string
	client *http.Client
	srv    *http.Server
	served chan error
}

func startAPI(h http.Handler) (*apiClient, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	a := &apiClient{
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		srv:    &http.Server{Handler: h},
		served: make(chan error, 1),
	}
	go func() { a.served <- a.srv.Serve(ln) }()
	return a, nil
}

// get fetches path and fails on any status but 200.
func (a *apiClient) get(path string) error {
	resp, err := a.client.Get(a.base + path)
	if err != nil {
		return err
	}
	_, cerr := io.Copy(io.Discard, resp.Body)
	if err := errors.Join(cerr, resp.Body.Close()); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return nil
}

// waitHealthy polls /api/health until it answers 200.
func (a *apiClient) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		err := a.get("/api/health")
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon never healthy: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (a *apiClient) close() {
	a.client.CloseIdleConnections()
	ioutil.CloseQuiet(a.srv)
	<-a.served
}

// checkReplay compares the daemon's final verdicts with a batch
// replay of exactly the observations in its final window: the
// checkpoint's data (the survey archive without the anchor) and the
// prefix of each target archive the sources handed out.
func (lv *live) checkReplay(d *serve.Daemon, h *harness) []error {
	start, nBins, ok := d.Monitor().WindowBounds()
	if !ok {
		return []error{errors.New("live: no window after the live phase")}
	}
	binWidth := d.Monitor().BinWidth()
	end := start.Add(time.Duration(nBins) * binWidth)
	var ledger []core.AttributedResult
	keep := func(asn bgp.ASN, r *traceroute.Result) {
		if !r.Timestamp.Before(start) && r.Timestamp.Before(end) {
			ledger = append(ledger, core.AttributedResult{ASN: asn, Result: r.Clone()})
		}
	}
	anchors, err := anchorIDs(lv.in.Path("probes.json"))
	if err != nil {
		return []error{err}
	}
	if err := scanArchive(lv.in.SurveyArchive("wire"), -1, func(asn bgp.ASN, r *traceroute.Result) {
		if !anchors[r.ProbeID] {
			keep(asn, r)
		}
	}); err != nil {
		return []error{err}
	}
	for _, t := range lv.in.Targets {
		asn := t.ASN
		if err := scanArchive(lv.in.LiveArchive(t.Name, "wire"), h.handedOut(t.Name), func(_ bgp.ASN, r *traceroute.Result) {
			keep(asn, r)
		}); err != nil {
			return []error{err}
		}
	}
	batch, skipped, err := core.RunSurvey("live-replay", ledger, core.SurveyOptions{
		Start: start, End: end, BinWidth: binWidth, MinTraceroutes: lastmile.DefaultMinTraceroutes,
	})
	if err != nil {
		return []error{fmt.Errorf("batch replay: %w", err)}
	}
	snap := d.ReadSnapshot()
	return compareLive(snap.Verdicts, snap.Skipped, batch, skipped)
}

// scanArchive calls fn for the first limit results of an archive (all
// of them when limit < 0). The result is valid only during the call.
func scanArchive(path string, limit int64, fn func(bgp.ASN, *traceroute.Result)) (err error) {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer ioutil.CloseJoin(f, &err)
	sc := lastmile.NewResultScanner(bufio.NewReaderSize(f, 1<<20))
	for n := int64(0); limit < 0 || n < limit; n++ {
		if !sc.Scan() {
			break
		}
		fn(sc.ASN(), sc.Result())
	}
	return sc.Err()
}

// anchorIDs reads the probe metadata and returns the anchors' IDs.
func anchorIDs(path string) (map[int]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer ioutil.CloseQuiet(f)
	reg, err := lastmile.ParseProbeRegistry(f)
	if err != nil {
		return nil, err
	}
	out := map[int]bool{}
	for _, p := range reg.All() {
		if p.IsAnchor {
			out[p.ID] = true
		}
	}
	return out, nil
}

// liveLayers times the live path's layers on the final rep's state.
func (lv *live) liveLayers(res *liveResult, m map[string]float64, parent spanRef) error {
	d := res.final
	if d == nil {
		return errors.New("live: no final daemon to trace")
	}
	const reps = 5
	timeIt := func(name string, n int, fn func() error) (float64, error) {
		var s []float64
		for i := 0; i < n; i++ {
			sp := lv.tr.Start(name, parent)
			t0 := time.Now()
			if err := fn(); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			s = append(s, time.Since(t0).Seconds())
			sp.End()
		}
		return median(s), nil
	}
	ckpt := lv.in.Path("checkpoint.state")
	var err error
	if m["restore.s"], err = timeIt("restore", 3, func() error {
		_, err := stream.Open(ckpt, liveStreamOptions())
		return err
	}); err != nil {
		return err
	}
	info, err := os.Stat(ckpt)
	if err != nil {
		return err
	}
	m["checkpoint.bytes"] = float64(info.Size())
	mon := d.Monitor()
	if m["refresh.s"], err = timeIt("refresh", reps, func() error {
		_, _ = mon.ClassifyAll()
		return nil
	}); err != nil {
		return err
	}
	if m["snapshot.s"], err = timeIt("snapshot", 3, func() error { return mon.Snapshot(io.Discard) }); err != nil {
		return err
	}
	cp := stream.NewCheckpointer(mon, filepath.Join(lv.work, "traced.state"))
	if m["checkpoint.s"], err = timeIt("checkpoint", 3, cp.Checkpoint); err != nil {
		return err
	}
	handler := d.Handler()
	var seriesBytes int
	serveOne := func(path string) error {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("GET %s: %d", path, rec.Code)
		}
		seriesBytes = rec.Body.Len()
		return nil
	}
	if m["api.verdicts_s"], err = timeIt("api.verdicts", 20, func() error { return serveOne("/api/verdicts") }); err != nil {
		return err
	}
	seriesPath := fmt.Sprintf("/api/series/%d", uint32(lv.in.Targets[0].ASN))
	if m["api.series_s"], err = timeIt("api.series", 20, func() error { return serveOne(seriesPath) }); err != nil {
		return err
	}
	m["api.series_bytes"] = float64(seriesBytes)

	m["ingest.lag_p50_ms"], _ = at(res.LagMs, 0.5)
	m["ingest.lag_p99_ms"], _ = at(res.LagMs, 0.99)
	m["engine.dropped"] = float64(res.Dropped)
	m["engine.evicted_bins"] = float64(res.EvictedBins)
	m["checkpoint.count"] = float64(res.Checkpoints)
	if res.Boundaries > 0 {
		m["refresh.coverage"] = float64(res.Refreshes) / float64(res.Boundaries)
	}
	lateMax := 0.0
	for _, v := range res.LateMs {
		lateMax = max(lateMax, v)
	}
	m["gen.late_max_ms"] = lateMax
	lv.tr.Count("ingest.lag_samples", float64(len(res.LagMs)))
	lv.tr.Count("live.boundaries", float64(res.Boundaries))
	lv.tr.Count("live.refreshes", float64(res.Refreshes))
	return nil
}

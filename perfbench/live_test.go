package main

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/serve"
	"github.com/last-mile-congestion/lastmile/internal/stream"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

// TestLiveHarnessFacts pins what the live half of the benchmark relies
// on, in one short run: a daemon restored from a checkpoint that holds
// only ISP_A, catching up a backlog of all four ISPs.
func TestLiveHarnessFacts(t *testing.T) {
	in := testInputs(t)
	work := t.TempDir()
	// A checkpoint of the survey days with ISP_A only.
	mon := stream.NewMonitor(liveStreamOptions())
	var observeErr error
	if err := scanArchive(in.SurveyArchive("wire"), -1, func(asn bgp.ASN, r *traceroute.Result) {
		if asn == in.Targets[0].ASN {
			observeErr = mon.Observe(asn, r)
		}
	}); err != nil || observeErr != nil {
		t.Fatal(err, observeErr)
	}
	ckpt := filepath.Join(work, "a-only.state")
	if err := writeCheckpoint(ckpt, mon); err != nil {
		t.Fatal(err)
	}
	lv := &live{in: in, enc: "wire", work: work, ops: &opCounter{log: &strings.Builder{}}}
	cfgPath, err := lv.configPath()
	if err != nil {
		t.Fatal(err)
	}
	if err := copyFile(lv.statePath(), ckpt); err != nil {
		t.Fatal(err)
	}
	h := &harness{clock: serve.NewFakeClock(in.CatchupEnd), catchupEnd: in.CatchupEnd, caught: make(chan time.Time, len(in.Targets))}
	d, err := serve.New(cfgPath, serve.Options{Clock: h.clock, Open: h.open, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	api, err := startAPI(d.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer api.close()

	// Snapshot.Bin is the start of the newest observation's bin in unix
	// seconds, not a bin index.
	restored := d.ReadSnapshot()
	bin := d.Monitor().BinWidth()
	if want := restored.Newest.Truncate(bin).Unix(); restored.Bin != want {
		t.Fatalf("restored Snapshot.Bin = %d, want %d (unix seconds of the bin start)", restored.Bin, want)
	}
	seriesA := "/api/series/65101"
	seriesB := "/api/series/65102"
	if err := api.get(seriesA); err != nil {
		t.Fatalf("restored AS: %v", err)
	}
	if err := api.get(seriesB); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("AS absent from the restored window: %v, want 404", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- d.Run(ctx, nil) }()
	for range in.Targets {
		select {
		case <-h.caught:
		case err := <-runErr:
			t.Fatalf("daemon stopped: %v", err)
		case <-time.After(time.Minute):
			t.Fatal("catch-up did not finish")
		}
	}
	// After catch-up the published snapshot is still the restored one:
	// refreshes happen on clock ticks, and the clock has not moved.
	if d.ReadSnapshot() != restored {
		t.Fatal("snapshot refreshed before the first tick")
	}
	if err := api.get(seriesB); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("before the first tick: %v, want 404", err)
	}

	// The first tick (half a bin) publishes a snapshot covering the
	// catch-up, and the caught-up AS is served.
	caughtBin, _ := d.Monitor().NewestBin()
	w := startWatcher(d)
	defer w.stop()
	h.clock.Advance(bin / 2)
	select {
	case <-w.reached(caughtBin):
	case <-time.After(time.Minute):
		t.Fatal("no refresh after the first tick")
	}
	s := d.ReadSnapshot()
	if s.Bin < caughtBin || s.Bin != s.Newest.Truncate(bin).Unix() {
		t.Fatalf("refreshed Snapshot.Bin = %d, newest %v, caught-up bin %d", s.Bin, s.Newest, caughtBin)
	}
	if err := api.get(seriesB); err != nil {
		t.Fatalf("after the first refresh: %v", err)
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
}

// TestLiveRunChecksPass runs the benchmark's live half on the small
// inputs, with a short live phase, and expects every check to pass.
func TestLiveRunChecksPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the live phase")
	}
	in := testInputs(t)
	ops := &opCounter{log: &strings.Builder{}}
	lv := &live{in: in, enc: "jsonl", work: t.TempDir(), ops: ops, tr: newTracer("test"),
		logf: t.Logf, params: liveParams{BinsPerSecond: 10, StepsPerBin: 50, Bins: 12, Seed: 7,
			APIPerSecond: 100, Timeout: time.Minute}}
	if err := lv.reps(1, true, spanRef{}); err != nil {
		t.Fatal(err)
	}
	// A rep after the live one leaves the live results alone.
	if err := lv.reps(1, false, spanRef{}); err != nil {
		t.Fatal(err)
	}
	res := &lv.res
	if ops.failed != 0 {
		t.Fatalf("%d of %d operations failed:\n%s", ops.failed, ops.attempted, ops.log)
	}
	if len(res.SetupS) != 2 || len(res.CatchupS) != 2 || len(res.FreshnessMs) != 12 || len(res.APIMs) == 0 {
		t.Fatalf("samples: %d setup, %d catch-up, %d freshness, %d API", len(res.SetupS), len(res.CatchupS), len(res.FreshnessMs), len(res.APIMs))
	}
	m := map[string]float64{}
	if err := lv.liveLayers(res, m, spanRef{}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"restore.s", "refresh.s", "snapshot.s", "checkpoint.s", "api.series_bytes", "ingest.lag_p50_ms"} {
		if m[name] <= 0 {
			t.Errorf("%s = %v", name, m[name])
		}
	}
	if m["engine.dropped"] != 0 {
		t.Errorf("engine dropped %v observations", m["engine.dropped"])
	}
}

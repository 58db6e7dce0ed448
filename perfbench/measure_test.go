package main

import (
	"bytes"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary act in the benchmark's helper roles,
// so measureChild can be tested with this binary as the spawner and as
// the measured child.
func TestMain(m *testing.M) {
	if os.Getenv(roleEnv) == "spawn" {
		os.Exit(spawnMain(os.Args[1:]))
	}
	if mb := os.Getenv("PERFBENCH_TEST_ALLOC_MB"); mb != "" {
		n, err := strconv.Atoi(mb)
		if err != nil {
			os.Exit(3)
		}
		touch(n)
		os.Exit(0)
	}
	code := m.Run()
	if smallInputs.dir != "" {
		if err := os.RemoveAll(smallInputs.dir); err != nil && code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// touch allocates n MB and writes every page, so it is resident.
func touch(n int) []byte {
	b := make([]byte, n<<20)
	for i := 0; i < len(b); i += 4096 {
		b[i] = 1
	}
	return b
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {0.25, 25}, {1, 100}, {0.001, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, {20, 0.5, true}, {99, 0.5, true}, {100, 0.9, true},
		{999, 0.9, true}, {1000, 0.99, true}, {10000, 0.999, true},
	} {
		q, ok := tailQuantile(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, q) < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond(c.n, q), q*100)
		}
	}
	if _, ok := at(make([]float64, 999), 0.99); ok {
		t.Error("p99 of 999 samples has fewer than 10 beyond it, but at reports it as sound")
	}
	if _, ok := at(make([]float64, 1000), 0.99); !ok {
		t.Error("p99 of 1000 samples has 10 beyond it")
	}
}

func TestSummarize(t *testing.T) {
	s := summarize("x", "ms", []float64{5, 1, 4, 2, 3})
	if s.N != 5 || s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 || s.TailQ != 0 {
		t.Fatalf("summary %+v", s)
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	base := time.Unix(1000, 0)
	msAt := func(v int) time.Time { return base.Add(time.Duration(v) * time.Millisecond) }
	// Due at 10 ms, but the previous operation held the connection
	// until 40 ms; started at 41 ms, done at 43 ms.
	s := openLoopSample{due: msAt(10), sent: msAt(41), done: msAt(43)}
	if got := s.lateness(msAt(40)); got != time.Millisecond {
		t.Errorf("generator lateness = %v, want 1ms (the stall is not the generator's)", got)
	}
	if got := s.latency(msAt(40)); got != 32*time.Millisecond {
		t.Errorf("latency = %v, want 32ms: from due, counting the stall but not the generator's 1ms", got)
	}
	// The previous operation ended before this one was due: the
	// generator alone started it 31ms late, and the latency is the 2ms
	// request.
	if got := s.lateness(msAt(5)); got != 31*time.Millisecond {
		t.Errorf("generator lateness = %v, want 31ms", got)
	}
	if got := s.latency(msAt(5)); got != 2*time.Millisecond {
		t.Errorf("latency = %v, want 2ms", got)
	}
}

func TestRunOpenLoopStallDelaysLaterOps(t *testing.T) {
	const period = 10 * time.Millisecond
	start := time.Now().Add(5 * time.Millisecond)
	samples, errs := runOpenLoop(start, period, start.Add(6*period), nil, func(k int) error {
		if k == 1 {
			time.Sleep(50 * time.Millisecond)
		}
		return nil
	})
	if len(samples) != 6 || len(errs) != 6 {
		t.Fatalf("%d samples, want 6", len(samples))
	}
	lat, _ := openLoopStats(samples)
	// Op 2 was due at 20 ms but could not start before op 1 ended at
	// >= 60 ms: its latency counts that wait.
	if lat[2] < 35 {
		t.Errorf("op 2 latency %.1f ms: the stall before it is not counted", lat[2])
	}
	for k, s := range samples {
		if s.sent.Before(s.due) {
			t.Errorf("op %d sent before it was due", k)
		}
	}
}

// TestPeakRSSIgnoresParent checks that a large parent does not inflate
// a child's peak RSS reading: a parent holding 384 MB spawns a child
// that touches 48 MB.
func TestPeakRSSIgnoresParent(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates 384 MB")
	}
	ballast := touch(384)
	defer func() { _ = ballast[len(ballast)-1] }()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	u, err := measureChild(self, &out, []string{"PERFBENCH_TEST_ALLOC_MB=48"}, self)
	if err != nil {
		t.Fatal(err)
	}
	if u.Exit != 0 {
		t.Fatalf("child exited %d", u.Exit)
	}
	if got := u.PeakRSSMB(); got < 48 || got > 200 {
		t.Fatalf("child peak RSS %.0f MB, want about 48 MB (parent holds 384 MB)", got)
	}
	if u.WallS <= 0 || u.CPUS() <= 0 {
		t.Fatalf("no wall or CPU time measured: %+v", u)
	}

	// For contrast, what wait4 reports when this large process spawns
	// the child directly.
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), "PERFBENCH_TEST_ALLOC_MB=48")
	if err := cmd.Run(); err != nil {
		t.Fatal(err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		t.Logf("direct spawn reads %d MB, the lean spawner %.0f MB", ru.Maxrss/1024, u.PeakRSSMB())
	}
}

func TestMeasureChildReportsExitCode(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	u, err := measureChild(self, &out, []string{"PERFBENCH_TEST_ALLOC_MB=x"}, self)
	if err != nil {
		t.Fatal(err)
	}
	if u.Exit != 3 {
		t.Fatalf("exit = %d, want 3", u.Exit)
	}
}

func TestTracerSpans(t *testing.T) {
	tr := newTracer("t1")
	root := tr.Start("run", spanRef{})
	child := tr.Start("decode", root)
	child.End()
	root.End()
	tr.Count("decode.records", 7)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{`"name": "decode"`, `"parent": 1`, `"trace": "t1"`, `"decode.records": 7`} {
		if !bytes.Contains([]byte(got), []byte(want)) {
			t.Errorf("trace JSON lacks %s:\n%s", want, got)
		}
	}
	var untraced *Tracer
	if d := untraced.Start("x", spanRef{}).End(); d != 0 {
		t.Errorf("nil tracer recorded %v", d)
	}
}

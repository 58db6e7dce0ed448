package main

// Measurement helpers: sample summaries and tail percentiles, open-loop
// timing, child-process resource usage, and the in-memory span tracer.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"sync"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted
// samples: the smallest sample with at least q·n samples at or below
// it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// beyond returns how many of n samples lie strictly beyond the
// nearest-rank q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - max(1, int(math.Ceil(q*float64(n))))
}

// tailQuantiles are the percentiles the benchmark may report as a tail,
// highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.9, 0.5}

// tailQuantile returns the highest of tailQuantiles with at least
// minBeyond of n samples beyond it; ok is false when even the median
// has fewer.
func tailQuantile(n int) (q float64, ok bool) {
	for _, q := range tailQuantiles {
		if beyond(n, q) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// Summary describes one metric's samples within a run.
type Summary struct {
	Name   string
	Unit   string
	N      int
	Median float64
	Q1, Q3 float64
	// TailQ is the highest percentile with minBeyond samples beyond it
	// (0 when there is none) and Tail its value.
	TailQ float64
	Tail  float64
}

// sorted returns the samples in ascending order, without NaNs: a
// measurement that produced none is absent, not an order statistic.
func sorted(samples []float64) []float64 {
	out := make([]float64, 0, len(samples))
	for _, v := range samples {
		if !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}

// summarize summarizes samples.
func summarize(name, unit string, samples []float64) Summary {
	s := sorted(samples)
	sum := Summary{Name: name, Unit: unit, N: len(s),
		Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
	if q, ok := tailQuantile(len(s)); ok {
		sum.TailQ, sum.Tail = q, quantile(s, q)
	}
	return sum
}

// at returns the nearest-rank q-quantile of the samples, and whether at
// least minBeyond samples lie beyond it.
func at(samples []float64, q float64) (float64, bool) {
	s := sorted(samples)
	return quantile(s, q), beyond(len(s), q) >= minBeyond
}

// median returns the median of samples without reordering them.
func median(samples []float64) float64 {
	v, _ := at(samples, 0.5)
	return v
}

// openLoopSample is the timing of one open-loop operation: when it was
// due by the schedule, when the generator started it, and when it
// ended.
type openLoopSample struct {
	due, sent, done time.Time
}

// ready is when the operation could first start: when it was due, or
// when the previous operation on the same connection ended, if later.
func (s openLoopSample) ready(prevDone time.Time) time.Time {
	if prevDone.After(s.due) {
		return prevDone
	}
	return s.due
}

// lateness is how late the generator itself started the operation, past
// the moment it could start.
func (s openLoopSample) lateness(prevDone time.Time) time.Duration {
	return max(0, s.sent.Sub(s.ready(prevDone)))
}

// latency is timed from when the operation was due, so a stall that
// delays later operations counts against each of them; the generator's
// own lateness is not counted. Go wakes an idle program's timers with
// millisecond granularity, so on an idle machine that lateness is about
// half a millisecond, as much as a whole loopback request.
func (s openLoopSample) latency(prevDone time.Time) time.Duration {
	return s.done.Sub(s.due) - s.lateness(prevDone)
}

// runOpenLoop runs op on a fixed schedule, one at a time (one
// connection): operation k is due at start + k·period, and runs as soon
// as it is due and the previous one has ended. It stops at stop or
// when stop is closed, and returns one sample per operation with op's
// error.
func runOpenLoop(start time.Time, period time.Duration, until time.Time, stop <-chan struct{}, op func(k int) error) ([]openLoopSample, []error) {
	var samples []openLoopSample
	var errs []error
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if !due.Before(until) {
			break
		}
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-stop:
				return samples, errs
			}
		}
		s := openLoopSample{due: due, sent: time.Now()}
		errs = append(errs, op(k))
		s.done = time.Now()
		samples = append(samples, s)
	}
	return samples, errs
}

// openLoopStats converts samples to latencies and generator lateness, in
// milliseconds.
func openLoopStats(samples []openLoopSample) (latMs, lateMs []float64) {
	var prev time.Time
	for _, s := range samples {
		latMs = append(latMs, ms(s.latency(prev)))
		lateMs = append(lateMs, ms(s.lateness(prev)))
		prev = s.done
	}
	return latMs, lateMs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// roleEnv selects a helper role when the benchmark binary (or its test
// binary) re-executes itself.
const roleEnv = "PERFBENCH_ROLE"

// childUsage is what the lean spawner reports about its child.
type childUsage struct {
	WallS    float64 `json:"wall_s"`
	UserS    float64 `json:"user_s"`
	SysS     float64 `json:"sys_s"`
	MaxRSSKB int64   `json:"max_rss_kb"`
	Exit     int     `json:"exit"`
}

// CPUS is the child's user plus system CPU time.
func (u childUsage) CPUS() float64 { return u.UserS + u.SysS }

// PeakRSSMB is the child's high-water resident set in MB.
func (u childUsage) PeakRSSMB() float64 { return float64(u.MaxRSSKB) / 1024 }

// measureChild runs argv and reports its wall time, CPU time and peak
// resident set. Linux charges a child's ru_maxrss with its parent's
// resident set at the exec (the exec inherits the parent's memory
// accounting until the new image replaces it), so the child is started
// by a freshly exec'd copy of this binary in the spawn role, whose own
// footprint is a few MB, and which reports the rusage it reaped. The
// child's stdout goes to stdout, its stderr to ours; env is appended
// to the environment.
func measureChild(self string, stdout io.Writer, env []string, argv ...string) (childUsage, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return childUsage{}, err
	}
	cmd := exec.Command(self, argv...)
	cmd.Env = append(append(os.Environ(), roleEnv+"=spawn"), env...)
	cmd.Stdout, cmd.Stderr = stdout, os.Stderr
	cmd.ExtraFiles = []*os.File{pw}
	if err := cmd.Start(); err != nil {
		return childUsage{}, errors.Join(err, pr.Close(), pw.Close())
	}
	// Our copy of the write end must close, or the read below never
	// sees EOF.
	if err := pw.Close(); err != nil {
		return childUsage{}, errors.Join(err, pr.Close(), cmd.Wait())
	}
	var u childUsage
	derr := json.NewDecoder(pr).Decode(&u)
	werr := cmd.Wait()
	if err := errors.Join(werr, pr.Close()); err != nil {
		return u, fmt.Errorf("spawner: %w", err)
	}
	if derr != nil {
		return u, fmt.Errorf("spawner report: %w", derr)
	}
	return u, nil
}

// spawnMain is the spawn role: run os.Args[1:] with this process's
// stdio, without the role variable, and write its childUsage as JSON to
// file descriptor 3. It returns the process exit code.
func spawnMain(argv []string) int {
	report := os.NewFile(3, "usage")
	if len(argv) == 0 || report == nil {
		fmt.Fprintln(os.Stderr, "perfbench spawn: no command")
		return 2
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	for _, kv := range os.Environ() {
		if len(kv) < len(roleEnv)+1 || kv[:len(roleEnv)+1] != roleEnv+"=" {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		fmt.Fprintln(os.Stderr, "perfbench spawn:", err)
		return 2
	}
	u := childUsage{WallS: wall.Seconds(), Exit: cmd.ProcessState.ExitCode()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.UserS = tvSeconds(ru.Utime)
		u.SysS = tvSeconds(ru.Stime)
		u.MaxRSSKB = ru.Maxrss
	}
	if err := json.NewEncoder(report).Encode(u); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench spawn:", err)
		return 2
	}
	if err := report.Close(); err != nil {
		return 2
	}
	return 0
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// processCPU returns this process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration((tvSeconds(ru.Utime) + tvSeconds(ru.Stime)) * float64(time.Second))
}

// Span is one timed layer pass of a traced run. Spans of one run share
// Trace; Parent is the ID of the enclosing span (0 for a root).
type Span struct {
	Trace   string `json:"trace"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Tracer keeps a run's spans and counts in memory. A nil Tracer records
// nothing, which is how untraced runs stay untraced.
type Tracer struct {
	mu     sync.Mutex
	trace  string
	t0     time.Time
	spans  []Span
	counts map[string]float64
}

func newTracer(trace string) *Tracer {
	return &Tracer{trace: trace, t0: time.Now(), counts: map[string]float64{}}
}

// spanRef is an open span.
type spanRef struct {
	t *Tracer
	i int
}

// Start opens a span under parent (the zero spanRef for a root).
func (t *Tracer) Start(name string, parent spanRef) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	pid := 0
	if parent.t != nil {
		pid = parent.i + 1
	}
	t.spans = append(t.spans, Span{Trace: t.trace, ID: id, Parent: pid, Name: name,
		StartNs: time.Since(t.t0).Nanoseconds(), EndNs: -1})
	return spanRef{t: t, i: id - 1}
}

// End closes the span and returns its duration.
func (s spanRef) End() time.Duration {
	if s.t == nil {
		return 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	sp := &s.t.spans[s.i]
	sp.EndNs = time.Since(s.t.t0).Nanoseconds()
	return time.Duration(sp.EndNs - sp.StartNs)
}

// Count records a count beside the spans.
func (t *Tracer) Count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] = v
}

// WriteJSON writes the spans and counts.
func (t *Tracer) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		Trace  string             `json:"trace"`
		Spans  []Span             `json:"spans"`
		Counts map[string]float64 `json:"counts"`
	}{t.trace, t.spans, t.counts})
}

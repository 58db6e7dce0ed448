// Command perfbench is the repository's end-to-end benchmark: archive
// bytes to rendered verdicts through the lmsurvey binary, and live
// observations to API responses through lmserved's serve.Daemon. See
// README.md in this directory for the workloads, the metrics and how
// to run it.
//
// Usage (from the repository root, through run.sh, which builds the
// program and this command first):
//
//	bash perfbench/run.sh --workload tokyo-wire --seed 1 --seconds 24 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 when every
// output check passed, 1 when one failed, and 2 when the benchmark
// could not run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"text/tabwriter"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/ioutil"
)

func main() {
	switch os.Getenv(roleEnv) {
	case "spawn":
		os.Exit(spawnMain(os.Args[1:]))
	case "gen":
		os.Exit(genMain(os.Args[1:]))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// workloads maps each workload to the archive encoding its batch and
// live halves read.
var workloads = map[string]string{
	"tokyo-wire":  "wire",
	"tokyo-jsonl": "jsonl",
}

// metricDef names one reported metric.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics of an untraced run, in report order.
var endToEnd = []metricDef{
	{"survey_s", "s"}, {"survey_cpu_s", "s"}, {"peak_rss_mb", "MB"},
	{"setup_s", "s"}, {"catchup_s", "s"},
	{"live_freshness_p50_ms", "ms"}, {"live_freshness_p90_ms", "ms"},
	{"api_p50_ms", "ms"},
	{"live_cpu_s", "s"},
}

// perLayer are the metrics of a traced run, in report order.
var perLayer = []metricDef{
	{"decode.s", "s"}, {"decode.mb_per_s", "MB/s"}, {"decode.records", "count"},
	{"attribute.anchors_excluded", "count"},
	{"estimate.s", "s"}, {"estimate.usable_ratio", "ratio"},
	{"feed.s", "s"}, {"feed.accepted_ratio", "ratio"},
	{"engine.resident_bins", "count"}, {"engine.resident_samples", "count"},
	{"signal.s", "s"}, {"classify.s", "s"},
	{"runsurvey.s", "s"}, {"render.s", "s"}, {"unattributed.s", "s"},
	{"restore.s", "s"}, {"checkpoint.bytes", "bytes"},
	{"ingest.lag_p50_ms", "ms"}, {"ingest.lag_p99_ms", "ms"},
	{"engine.dropped", "count"}, {"engine.evicted_bins", "count"},
	{"refresh.s", "s"}, {"refresh.coverage", "ratio"},
	{"snapshot.s", "s"}, {"checkpoint.s", "s"}, {"checkpoint.count", "count"},
	{"api.verdicts_s", "s"}, {"api.series_s", "s"}, {"api.series_bytes", "bytes"},
	{"gen.late_max_ms", "ms"},
}

// opCounter counts operations and failed ones, logging each failure.
type opCounter struct {
	mu                sync.Mutex
	attempted, failed int
	log               io.Writer
}

func (o *opCounter) attempt() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
}

// fail marks the current operation failed.
func (o *opCounter) fail(err error) { o.failAll([]error{err}) }

// failAll marks the current operation failed when errs is not empty.
func (o *opCounter) failAll(errs []error) {
	if len(errs) == 0 {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed++
	for _, err := range errs {
		fmt.Fprintln(o.log, "perfbench: check failed:", err)
	}
}

// config is one invocation's settings.
type config struct {
	self string
	// build holds bin/lmsurvey and everything the benchmark writes:
	// inputs/ (the input cache), work/ (daemon state), traces/.
	build   string
	seed    uint64
	seconds int
	trace   bool
	log     io.Writer
}

func (c *config) path(elem ...string) string {
	return filepath.Join(append([]string{c.build}, elem...)...)
}

// outcome is one workload run.
type outcome struct {
	workload string
	// defs are the metrics reported (endToEnd or perLayer), and
	// metrics their values; a missing value is a failed measurement.
	defs      []metricDef
	metrics   map[string]float64
	summaries []Summary
	ops       *opCounter
	// note is a line printed under the metrics table.
	note string
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: tokyo-wire, tokyo-jsonl, or all")
		seed     = fs.Uint64("seed", 2020, "input seed")
		seconds  = fs.Int("seconds", 24, "measured seconds per workload: a third for the batch half, the rest for the live phase")
		trace    = fs.Int("trace", 0, "1 = traced run: report per-layer metrics and write spans")
		build    = fs.String("build", ".bench_build", "directory holding bin/lmsurvey; inputs, daemon state and traces go under it")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var names []string
	switch _, ok := workloads[*workload]; {
	case *workload == "all":
		for name := range workloads {
			names = append(names, name)
		}
		sort.Strings(names)
	case ok:
		names = []string{*workload}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds < 2 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -seconds >= 2 and -trace 0 or 1")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	cfg := &config{self: self, build: *build, seed: *seed, seconds: *seconds, trace: *trace == 1, log: os.Stderr}

	var outs []*outcome
	for _, name := range names {
		out, err := runWorkload(cfg, name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 2
		}
		printReport(stdout, out)
		outs = append(outs, out)
	}
	return printResult(stdout, outs)
}

// runWorkload runs one workload's batch and live halves.
func runWorkload(cfg *config, name string) (*outcome, error) {
	enc := workloads[name]
	in, err := ensureInputs(cfg.self, cfg.path("inputs"), cfg.seed, benchSize)
	if err == nil {
		err = in.ensureEncoding(enc)
	}
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	ops := &opCounter{log: cfg.log}
	var tr *Tracer
	if cfg.trace {
		tr = newTracer(fmt.Sprintf("%s-s%d-%d", name, cfg.seed, time.Now().UnixNano()))
	}
	root := tr.Start("run", spanRef{})
	// A third of the measured time goes to the batch half, whose runs
	// repeat; the rest to the live phase, whose tails need samples.
	batch := time.Duration(cfg.seconds) * time.Second / 3
	livePhase := time.Duration(cfg.seconds)*time.Second - batch
	argv := surveyArgs(cfg.path("bin", "lmsurvey"), in, enc)
	sres := &surveyResult{}
	// 10 bins per second leaves the daemon's maintenance loop most of
	// each bin idle; at 20 the live metrics followed the machine's speed
	// far more closely. The clock steps every 2 ms.
	const binsPerSecond = 10
	lv := &live{in: in, enc: enc, work: cfg.path("work", name), tr: tr, ops: ops,
		logf: func(string, ...any) {}, params: liveParams{
			BinsPerSecond: binsPerSecond,
			StepsPerBin:   50,
			Bins:          min(int(livePhase.Seconds()*binsPerSecond), in.Size.LiveDays*48-1),
			Seed:          cfg.seed,
			APIPerSecond:  100,
			Timeout:       60 * time.Second,
		}}
	// The machine's speed drifts within a run, so the batch runs and
	// the set-up and catch-up reps are spread over the whole run: half
	// the batch runs, four reps, the live rep (the fifth set-up and
	// catch-up), the other half of the batch runs, three more reps.
	steps := []func() error{
		func() error { return runSurveyPhase(cfg.self, argv, in, batch/2, sres, ops, tr, root) },
		func() error { return lv.reps(4, false, root) },
		func() error { return lv.reps(1, true, root) },
		func() error { return runSurveyPhase(cfg.self, argv, in, batch/2, sres, ops, tr, root) },
		func() error { return lv.reps(3, false, root) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	lres := &lv.res
	layer := map[string]float64{}
	if cfg.trace {
		ops.attempt()
		errs, err := surveyLayers(in, enc, median(sres.SurveyS), layer, tr, root)
		if err != nil {
			return nil, err
		}
		ops.failAll(errs)
		if err := lv.liveLayers(lres, layer, root); err != nil {
			return nil, err
		}
	}
	root.End()
	if cfg.trace {
		tr.Count("survey_s", median(sres.SurveyS))
		if err := writeSpans(cfg, name, tr); err != nil {
			return nil, err
		}
	}

	if cfg.trace {
		return &outcome{workload: name, defs: perLayer, metrics: layer, ops: ops,
			note: fmt.Sprintf("survey_s %.3f s = decode %.3f + runsurvey %.3f + render %.4f + unattributed %.3f",
				median(sres.SurveyS), layer["decode.s"], layer["runsurvey.s"], layer["render.s"], layer["unattributed.s"]),
		}, nil
	}
	out := &outcome{workload: name, defs: endToEnd, metrics: map[string]float64{}, ops: ops}
	sum := func(name, unit string, samples []float64) Summary {
		s := summarize(name, unit, samples)
		out.summaries = append(out.summaries, s)
		return s
	}
	m := out.metrics
	m["survey_s"] = sum("survey_s", "s", sres.SurveyS).Median
	m["survey_cpu_s"] = sum("survey_cpu_s", "s", sres.CPUS).Median
	m["peak_rss_mb"] = sum("peak_rss_mb", "MB", sres.PeakRSSMB).Median
	m["setup_s"] = sum("setup_s", "s", lres.SetupS).Median
	m["catchup_s"] = sum("catchup_s", "s", lres.CatchupS).Median
	m["live_freshness_p50_ms"] = sum("live_freshness_ms", "ms", lres.FreshnessMs).Median
	m["live_freshness_p90_ms"] = quantileOf(lres.FreshnessMs, 0.9, cfg.log, "live_freshness_p90_ms")
	m["api_p50_ms"] = sum("api_ms", "ms", lres.APIMs).Median
	m["live_cpu_s"] = lres.LiveCPUS
	return out, nil
}

// quantileOf returns a named percentile, warning when fewer than
// minBeyond samples lie beyond it.
func quantileOf(samples []float64, q float64, log io.Writer, name string) float64 {
	v, ok := at(samples, q)
	if !ok {
		fmt.Fprintf(log, "perfbench: %s rests on %d samples, fewer than %d beyond it\n", name, len(samples), minBeyond)
	}
	return v
}

// writeSpans writes a traced run's spans to traces/<workload>-s<seed>.json.
func writeSpans(cfg *config, name string, tr *Tracer) (err error) {
	if err := os.MkdirAll(cfg.path("traces"), 0o755); err != nil {
		return err
	}
	f, err := os.Create(cfg.path("traces", fmt.Sprintf("%s-s%d.json", name, cfg.seed)))
	if err != nil {
		return err
	}
	defer ioutil.CloseJoin(f, &err)
	return tr.WriteJSON(f)
}

// printReport writes one workload's human-readable report.
func printReport(w io.Writer, out *outcome) {
	fmt.Fprintf(w, "== %s ==\n", out.workload)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tvalue\t")
	for _, d := range out.defs {
		fmt.Fprintf(tw, "%s\t%s\t%s\t\n", d.Name, d.Unit, fmtFloat(out.value(d.Name)))
	}
	fmt.Fprintf(tw, "failed_ratio\tratio\t%s\t(%d of %d operations)\n",
		fmtFloat(float64(out.ops.failed)/float64(max(1, out.ops.attempted))), out.ops.failed, out.ops.attempted)
	_ = tw.Flush()
	if out.note != "" {
		fmt.Fprintln(w, out.note)
	}
	if len(out.summaries) > 0 {
		fmt.Fprintln(w, "samples within this run:")
		tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "series\tunit\tmedian\tq1\tq3\tn\ttail\t")
		for _, s := range out.summaries {
			tail := "-"
			if s.TailQ > 0 {
				tail = fmt.Sprintf("p%s=%s", strconv.FormatFloat(s.TailQ*100, 'f', -1, 64), fmtFloat(s.Tail))
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%d\t%s\t\n", s.Name, s.Unit,
				fmtFloat(s.Median), fmtFloat(s.Q1), fmtFloat(s.Q3), s.N, tail)
		}
		_ = tw.Flush()
	}
}

// value returns a metric's value, NaN when it was not measured.
func (o *outcome) value(name string) float64 {
	if v, ok := o.metrics[name]; ok {
		return v
	}
	return math.NaN()
}

func fmtFloat(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// metricJSON is one metric of the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the result line and returns the exit code.
func printResult(w io.Writer, outs []*outcome) int {
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{Metrics: map[string]metricJSON{}}
	for _, o := range outs {
		res.Attempted += o.ops.attempted
		res.Failed += o.ops.failed
		for _, d := range o.defs {
			name, v := d.Name, o.value(d.Name)
			if len(outs) > 1 {
				name = o.workload + "." + name
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = -1 // JSON has no NaN; a missing measurement is a failure
				res.Failed++
			}
			res.Metrics[name] = metricJSON{Value: v, Unit: d.Unit}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(w, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// genMain is the gen role: build one input set. Arguments: the target
// directory, the seed, and the three Size fields.
func genMain(args []string) int {
	if len(args) != 5 {
		fmt.Fprintln(os.Stderr, "perfbench gen: want dir seed survey-days catchup-days live-days")
		return 2
	}
	var nums [4]uint64
	for i := range nums {
		v, err := strconv.ParseUint(args[i+1], 10, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench gen:", err)
			return 2
		}
		nums[i] = v
	}
	size := Size{SurveyDays: int(nums[1]), CatchupDays: int(nums[2]), LiveDays: int(nums[3])}
	if _, err := buildInputs(args[0], nums[0], size); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench gen:", err)
		return 1
	}
	return 0
}

// ensureInputs returns the cached input set for (seed, size), building
// it in a child process when it is missing, and prunes older sets.
func ensureInputs(self, cache string, seed uint64, size Size) (*Inputs, error) {
	if err := os.MkdirAll(cache, 0o755); err != nil {
		return nil, err
	}
	entry := cacheEntry(seed, size)
	dir := filepath.Join(cache, entry)
	in, ok := loadInputs(dir)
	if !ok {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		cmd := exec.Command(self, dir, strconv.FormatUint(seed, 10), strconv.Itoa(size.SurveyDays),
			strconv.Itoa(size.CatchupDays), strconv.Itoa(size.LiveDays))
		cmd.Env = append(os.Environ(), roleEnv+"=gen")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("input build: %w", err)
		}
		if in, ok = loadInputs(dir); !ok {
			return nil, fmt.Errorf("input build for seed %d left no input set", seed)
		}
	}
	now := time.Now()
	if err := os.Chtimes(dir, now, now); err != nil {
		return nil, err
	}
	return in, pruneCache(cache, entry, 3)
}

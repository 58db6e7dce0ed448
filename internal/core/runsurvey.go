package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/engine"
	lm "github.com/last-mile-congestion/lastmile/internal/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/parallel"
	"github.com/last-mile-congestion/lastmile/internal/telemetry"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

// AttributedResult pairs one traceroute result with its origin AS.
// Attribution (RIB longest-prefix match, probe metadata, or a fixed
// mapping) is the caller's concern; the survey only needs the pairing.
type AttributedResult struct {
	ASN    bgp.ASN
	Result *traceroute.Result
}

// SurveyOptions configures RunSurvey.
type SurveyOptions struct {
	// BinWidth is the aggregation bin (default 30 minutes).
	BinWidth time.Duration
	// MinTraceroutes is the per-bin sanity threshold (default 3).
	MinTraceroutes int
	// Start and End bound the measurement period. Zero values are
	// derived from the data: Start floors the earliest timestamp to a
	// bin boundary, End ceils the latest.
	Start, End time.Time
	// Classifier configures the detector; the zero value selects
	// DefaultClassifierOptions.
	Classifier ClassifierOptions
	// Workers bounds the per-AS classification fan-out (default
	// GOMAXPROCS). Results are identical at any worker count.
	Workers int
	// Shards is the engine's lock-stripe count (default 1). Results are
	// identical at any shard count.
	Shards int
	// Metrics is the registry the survey's engine and phase timers
	// register into. Nil means a private registry. Telemetry is
	// observation-only: verdicts are bit-identical with or without it
	// (pinned by TestRunSurveyMetricsEquivalence).
	Metrics *telemetry.Registry
}

// withDefaults fills zero fields.
func (o SurveyOptions) withDefaults() SurveyOptions {
	if o.BinWidth == 0 {
		o.BinWidth = lm.DefaultBinWidth
	}
	if o.MinTraceroutes == 0 {
		o.MinTraceroutes = lm.DefaultMinTraceroutes
	}
	if o.Classifier.MaxGapFrac == 0 {
		o.Classifier = DefaultClassifierOptions()
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	return o
}

// SkippedAS records why an AS present in the input produced no survey
// verdict, so a misbehaving AS is observable instead of silently
// vanishing from the report.
type SkippedAS struct {
	ASN    bgp.ASN
	Reason error
}

// ErrNoUsableData marks an AS none of whose traceroutes carried a
// usable last-mile segment.
var ErrNoUsableData = errors.New("no usable last-mile data")

var errNoResults = errors.New("core: no results to survey")

// RunSurvey runs the paper's batch pipeline (§2.1 + §2.3) over one
// completed measurement period: it replays the attributed results
// through the shared incremental delay engine (the same engine the
// streaming monitor drives continuously), then classifies every AS.
// ASes that cannot be classified are returned with their reasons. The
// survey is identical at any Workers and Shards count, and identical to
// streaming the same results through stream.Monitor with a window
// covering the period.
func RunSurvey(period string, results []AttributedResult, opts SurveyOptions) (*Survey, []SkippedAS, error) {
	return RunSurveySharded(period, results, 1, opts)
}

// RunSurveySharded is RunSurvey's map-reduce form over a slice: it
// feeds every result through a SurveyFeed split across K engines and
// finishes it. The survey is bit-identical at any split count, which
// TestRunSurveyShardedEquivalence pins for K ∈ {1, 2, 8}; a split
// larger than the input is clamped to its length.
func RunSurveySharded(period string, results []AttributedResult, split int, opts SurveyOptions) (*Survey, []SkippedAS, error) {
	if len(results) == 0 {
		return nil, nil, errNoResults
	}
	feed := NewSurveyFeed(min(split, len(results)), opts)
	for i, ar := range results {
		if ar.Result == nil {
			return nil, nil, fmt.Errorf("core: nil result at index %d", i)
		}
		feed.Add(ar.ASN, ar.Result)
	}
	return feed.Finish(period)
}

// SurveyFeed is the batch survey as one streaming pass: each traceroute
// is estimated and observed into an unbounded engine as it arrives and
// nothing is retained, so a survey's memory is the engine's resident
// bins, not the archive. Batch is thereby literally a replay of
// streaming (DESIGN.md §11). A feed is single-use and not safe for
// concurrent use: Add every result, then Finish once.
//
// The feed is split across K independent engines by a Fibonacci hash of
// the ASN and merged (engine.Merge) at Finish. Per-bin medians are exact
// order statistics, so the survey is bit-identical at any split count.
// Split is the unit of coarse-grained distribution — each engine's state
// could arrive as a wire snapshot from another process — while
// SurveyOptions.Shards remains the per-engine lock striping.
type SurveyFeed struct {
	opts    SurveyOptions
	reg     *telemetry.Registry
	engines []*engine.Engine
	// asns is the AS universe: every fed AS, usable samples or not, so
	// wholly-unusable ASes surface as skipped.
	asns       map[bgp.ASN]struct{}
	n          int
	tMin, tMax time.Time
	// scratch is the reused estimate buffer; Observe copies out of it.
	scratch  []float64
	unusable *telemetry.Counter
	// feedTimer spans the whole pass, from NewSurveyFeed to Finish, so
	// a caller decoding as it feeds is timed end to end.
	feedTimer telemetry.Timer
}

// NewSurveyFeed starts a survey pass split across split engines (at
// least one).
func NewSurveyFeed(split int, opts SurveyOptions) *SurveyFeed {
	opts = opts.withDefaults()
	split = max(split, 1)
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	f := &SurveyFeed{
		opts:     opts,
		reg:      reg,
		engines:  make([]*engine.Engine, split),
		asns:     make(map[bgp.ASN]struct{}),
		unusable: reg.Counter("survey_unusable_total"),
	}
	// All engines share one registry, so the merged Stats report
	// whole-survey totals. Engines register resident-state gauges with
	// last-wins replacement; constructing engine 0 — the merge target
	// that survives Finish — last keeps those gauges reading the engine
	// that actually holds the merged state.
	for k := split - 1; k >= 0; k-- {
		f.engines[k] = engine.New(engine.Options{
			BinWidth:       opts.BinWidth,
			MinTraceroutes: opts.MinTraceroutes,
			Shards:         opts.Shards,
			Metrics:        reg,
		})
	}
	f.feedTimer = reg.Histogram("survey_feed_seconds", telemetry.DefLatencyBuckets).Start()
	return f
}

// Add feeds one attributed traceroute. r is read, never retained, so a
// scanner's reused Result can be passed straight through. A traceroute
// without a last-mile segment still widens the period and the AS
// universe, and counts in survey_unusable_total.
//
//lmvet:hotpath
func (f *SurveyFeed) Add(asn bgp.ASN, r *traceroute.Result) {
	f.asns[asn] = struct{}{}
	if f.n == 0 || r.Timestamp.Before(f.tMin) {
		f.tMin = r.Timestamp
	}
	if f.n == 0 || r.Timestamp.After(f.tMax) {
		f.tMax = r.Timestamp
	}
	f.n++
	samples, _, ok := lm.EstimateInto(f.scratch[:0], r)
	f.scratch = samples
	if !ok {
		f.unusable.Inc()
		return
	}
	h := uint64(asn) * 0x9e3779b97f4a7c15
	f.engines[h%uint64(len(f.engines))].Observe(asn, r.ProbeID, r.Timestamp, samples)
}

// Bounds returns the survey period [start, end): SurveyOptions.Start
// and End where pinned, otherwise the earliest fed timestamp floored
// and the latest ceiled to bin boundaries. ok is false before any Add.
func (f *SurveyFeed) Bounds() (start, end time.Time, ok bool) {
	start, end = f.opts.Start, f.opts.End
	if f.n == 0 {
		return start, end, false
	}
	if start.IsZero() {
		start = f.tMin.Truncate(f.opts.BinWidth)
	}
	if end.IsZero() {
		end = f.tMax.Add(f.opts.BinWidth).Truncate(f.opts.BinWidth)
	}
	return start, end, true
}

// Finish ends the pass: it folds the split engines into one and
// classifies every fed AS over Bounds. ASes that cannot be classified
// are returned with their reasons.
func (f *SurveyFeed) Finish(period string) (*Survey, []SkippedAS, error) {
	f.feedTimer.Stop()
	start, end, ok := f.Bounds()
	if !ok {
		return nil, nil, errNoResults
	}
	if !start.Before(end) {
		return nil, nil, fmt.Errorf("core: survey period start %v does not precede end %v", start, end)
	}
	nBins := int(end.Sub(start) / f.opts.BinWidth)
	if end.Sub(start)%f.opts.BinWidth != 0 {
		nBins++
	}

	// Reduce: fold every split engine into the first. Merge is
	// commutative and associative, so a sequential left fold is as good
	// as any merge tree.
	eng := f.engines[0]
	mergeTimer := f.reg.Histogram("survey_merge_seconds", telemetry.DefLatencyBuckets).Start()
	for _, o := range f.engines[1:] {
		if err := eng.Merge(o); err != nil {
			mergeTimer.Stop()
			return nil, nil, err
		}
	}
	mergeTimer.Stop()

	universe := make([]bgp.ASN, 0, len(f.asns))
	for asn := range f.asns {
		universe = append(universe, asn)
	}
	slices.Sort(universe)
	return classifySurvey(period, eng, universe, start, nBins, f.opts, f.reg)
}

// classifySurvey runs the §2.3 classification pass over a fed engine
// for every AS of the sorted universe and assembles the survey.
func classifySurvey(period string, eng *engine.Engine, universe []bgp.ASN, start time.Time, nBins int, opts SurveyOptions, reg *telemetry.Registry) (*Survey, []SkippedAS, error) {
	engineASes := make(map[bgp.ASN]bool)
	for _, asn := range eng.ASNs() {
		engineASes[asn] = true
	}

	type verdict struct {
		result *ASResult
		reason error
	}
	classifyTimer := reg.Histogram("survey_classify_seconds", telemetry.DefLatencyBuckets).Start()
	verdicts, err := parallel.Map(context.Background(), opts.Workers, len(universe), func(i int) (verdict, error) {
		asn := universe[i]
		if !engineASes[asn] {
			return verdict{reason: ErrNoUsableData}, nil
		}
		signal, n, err := eng.Signal(asn, start, nBins)
		if err != nil {
			return verdict{reason: err}, nil
		}
		cls, err := Classify(signal, opts.Classifier)
		if err != nil {
			// Renderers label skips "unclassifiable"; the classifier's
			// own error is the reason.
			return verdict{reason: err}, nil
		}
		return verdict{result: &ASResult{ASN: asn, Probes: n, Signal: signal, Classification: cls}}, nil
	})
	classifyTimer.Stop()
	if err != nil {
		return nil, nil, err
	}

	survey := NewSurvey(period)
	var skipped []SkippedAS
	for i, v := range verdicts {
		switch {
		case v.result != nil:
			survey.Add(v.result)
		default:
			skipped = append(skipped, SkippedAS{ASN: universe[i], Reason: v.reason})
		}
	}
	return survey, skipped, nil
}

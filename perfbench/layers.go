package main

// The traced run's batch layers. Each layer is timed from outside, by
// calling its public function on the workload's own survey data, in the
// order lmsurvey runs them.

import (
	"fmt"
	"io"
	"os"
	"time"

	lastmile "github.com/last-mile-congestion/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/core"
	"github.com/last-mile-congestion/lastmile/internal/engine"
	"github.com/last-mile-congestion/lastmile/internal/ioutil"
	lm "github.com/last-mile-congestion/lastmile/internal/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/report"
)

// surveyLayers fills the batch per-layer metrics into m. surveyS is the
// traced run's median lmsurvey wall time, from which the layers'
// sum is subtracted to give the time no layer accounts for. Output
// mismatches are returned as check errors.
func surveyLayers(in *Inputs, enc string, surveyS float64, m map[string]float64, tr *Tracer, parent spanRef) ([]error, error) {
	span := tr.Start("layers.survey", parent)
	defer span.End()
	path := in.SurveyArchive(enc)
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}

	// decode: the scanner alone, nothing retained.
	sp := tr.Start("decode", span)
	records, err := decodeOnly(path)
	decode := sp.End()
	if err != nil {
		return nil, err
	}
	m["decode.s"] = decode.Seconds()
	m["decode.records"] = float64(records)
	m["decode.mb_per_s"] = float64(info.Size()) / 1e6 / decode.Seconds()
	tr.Count("decode.bytes", float64(info.Size()))

	// attribute: decode again, attribute by probe metadata, exclude
	// anchors and clone, as lmsurvey does before its survey.
	sp = tr.Start("attribute", span)
	attributed, anchors, err := attribute(path, in.Path("probes.json"))
	sp.End()
	if err != nil {
		return nil, err
	}
	m["attribute.anchors_excluded"] = float64(anchors)
	tr.Count("attribute.results", float64(len(attributed)))

	// estimate: the last-mile estimator over every attributed result.
	type usable struct {
		i        int
		off, end int
	}
	var flat []float64
	var ok []usable
	sp = tr.Start("estimate", span)
	var scratch []float64
	for i, a := range attributed {
		samples, _, good := lm.EstimateInto(scratch[:0], a.Result)
		scratch = samples
		if good {
			off := len(flat)
			flat = append(flat, samples...)
			ok = append(ok, usable{i, off, len(flat)})
		}
	}
	m["estimate.s"] = sp.End().Seconds()
	m["estimate.usable_ratio"] = float64(len(ok)) / float64(len(attributed))

	// feed: an unbounded engine, as the batch survey builds it.
	sp = tr.Start("feed", span)
	eng := engine.New(engine.Options{BinWidth: lastmile.DefaultBinWidth, MinTraceroutes: lastmile.DefaultMinTraceroutes})
	accepted := 0
	for _, u := range ok {
		a := attributed[u.i]
		if eng.Observe(a.ASN, a.Result.ProbeID, a.Result.Timestamp, flat[u.off:u.end]) {
			accepted++
		}
	}
	m["feed.s"] = sp.End().Seconds()
	m["feed.accepted_ratio"] = float64(accepted) / float64(len(ok))
	st := eng.Stats()
	m["engine.resident_bins"] = float64(st.Bins)
	m["engine.resident_samples"] = float64(st.Samples)

	// signal and classify, per AS over the survey window.
	nBins := int(in.Survey.End.Sub(in.Survey.Start) / lastmile.DefaultBinWidth)
	var signalD, classifyD time.Duration
	for _, asn := range eng.ASNs() {
		sp = tr.Start("signal", span)
		sig, _, err := eng.Signal(asn, in.Survey.Start, nBins)
		signalD += sp.End()
		if err != nil {
			continue // an AS without a signal is skipped, as the survey does
		}
		// Only timed: the verdicts are checked through runsurvey's rows.
		sp = tr.Start("classify", span)
		_, _ = core.Classify(sig, core.DefaultClassifierOptions())
		classifyD += sp.End()
	}
	m["signal.s"] = signalD.Seconds()
	m["classify.s"] = classifyD.Seconds()

	// runsurvey: the batch runner, called as lmsurvey calls it.
	sp = tr.Start("runsurvey", span)
	survey, skipped, err := lastmile.RunSurveySharded(in.Survey.Start.Format("2006-01"), attributed, 1,
		lastmile.SurveyOptions{Start: in.Survey.Start, End: in.Survey.End})
	m["runsurvey.s"] = sp.End().Seconds()
	if err != nil {
		return nil, err
	}

	// render: the verdict rows and the table.
	probes := map[lastmile.ASN]map[int]bool{}
	for _, a := range attributed {
		if probes[a.ASN] == nil {
			probes[a.ASN] = map[int]bool{}
		}
		probes[a.ASN][a.Result.ProbeID] = true
	}
	sp = tr.Start("render", span)
	rows := surveyRows(survey, skipped, func(asn lastmile.ASN) int { return len(probes[asn]) })
	tb := report.NewTable("AS", "probes", "class", "daily amp (ms)", "peak freq (c/h)", "signal")
	for _, r := range rows {
		tb.AddRow(r...)
	}
	err = tb.Render(io.Discard)
	m["render.s"] = sp.End().Seconds()
	if err != nil {
		return nil, err
	}
	m["unattributed.s"] = surveyS - (m["decode.s"] + m["runsurvey.s"] + m["render.s"])
	return compareRows(rows, in.Reference), nil
}

// decodeOnly scans an archive and counts its results.
func decodeOnly(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer ioutil.CloseQuiet(f)
	sc := lastmile.NewResultScanner(f)
	n := 0
	for sc.Scan() {
		n++
	}
	return n, sc.Err()
}

// attribute decodes an archive into attributed results the way lmsurvey
// does: probe metadata gives the AS and excludes anchors, the archive's
// in-band AS is the fallback, and each result is cloned because the
// scanner reuses its storage.
func attribute(path, probesPath string) ([]lastmile.AttributedResult, int, error) {
	pf, err := os.Open(probesPath)
	if err != nil {
		return nil, 0, err
	}
	registry, err := lastmile.ParseProbeRegistry(pf)
	ioutil.CloseQuiet(pf)
	if err != nil {
		return nil, 0, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer ioutil.CloseQuiet(f)
	sc := lastmile.NewResultScanner(f)
	var out []lastmile.AttributedResult
	anchors := 0
	for sc.Scan() {
		res := sc.Result()
		asn := sc.ASN()
		if info, ok := registry.ByID(res.ProbeID); ok {
			if info.IsAnchor {
				anchors++
				continue
			}
			if info.ASNv4 != 0 {
				asn = info.ASNv4
			}
		}
		out = append(out, lastmile.AttributedResult{ASN: asn, Result: res.Clone()})
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if len(out) == 0 {
		return nil, 0, fmt.Errorf("%s: no attributable results", path)
	}
	return out, anchors, nil
}

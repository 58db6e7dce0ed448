package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/core"
	"github.com/last-mile-congestion/lastmile/internal/dsp"
	"github.com/last-mile-congestion/lastmile/internal/report"
	"github.com/last-mile-congestion/lastmile/internal/stream"
	"github.com/last-mile-congestion/lastmile/internal/timeseries"
)

// testManifest is a survey reference in the shape buildInputs writes, with a gap bin leading one sparkline.
func testManifest() *Manifest {
	start := time.Date(2019, 9, 19, 0, 0, 0, 0, time.UTC)
	return &Manifest{
		Survey: surveyFacts{Total: 1000, Anchors: 40, Probes: 27, Groups: 4, Start: start, End: start.Add(7 * 24 * time.Hour)},
		Reference: []Row{
			{"AS65101", "8", "Severe", "4.57", "0.042", "▁▁▃▇▁▁"},
			{"AS65102", "5", "Severe", "4.15", "0.042", " ▁▂█▁▁"},
			{"AS65103", "8", "None", "0.05", "0.042", "▅▅▅█▅▄"},
			{"AS65104", "6", "Mild", "2.80", "0.042", "▁▁▂▇▁ "},
		},
	}
}

// lmsurveyOutput renders rows the way lmsurvey prints them.
func lmsurveyOutput(t *testing.T, m *Manifest, rows []Row) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("lmsurvey: 1000 traceroutes, 27 probes, 4 AS group(s), 2019-09-19T00:00:00Z .. 2019-09-26T00:00:00Z (40 anchor traceroutes excluded)\n\n")
	tb := report.NewTable("AS", "probes", "class", "daily amp (ms)", "peak freq (c/h)", "signal")
	for _, r := range rows {
		tb.AddRow(r...)
	}
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func cloneRows(rows []Row) []Row {
	out := make([]Row, len(rows))
	for i, r := range rows {
		out[i] = append(Row(nil), r...)
	}
	return out
}

func TestCheckSurveyAcceptsMatchingOutput(t *testing.T) {
	m := testManifest()
	if errs := checkSurvey(lmsurveyOutput(t, m, m.Reference), m); len(errs) > 0 {
		t.Fatalf("matching output rejected: %v", errs)
	}
}

func TestPerturbedReferenceIsAFailure(t *testing.T) {
	m := testManifest()
	out := lmsurveyOutput(t, m, m.Reference)
	for _, c := range []struct {
		name    string
		perturb func(*Manifest)
	}{
		{"amplitude", func(m *Manifest) { m.Reference[0][3] = "4.58" }},
		{"class", func(m *Manifest) { m.Reference[1][2] = "Mild" }},
		{"probes", func(m *Manifest) { m.Reference[3][1] = "5" }},
		{"sparkline", func(m *Manifest) { m.Reference[2][5] = "▅▅▅█▅▅" }},
		{"row missing", func(m *Manifest) { m.Reference = m.Reference[:3] }},
		{"anchor count", func(m *Manifest) { m.Survey.Anchors = 39 }},
		{"window", func(m *Manifest) { m.Survey.End = m.Survey.End.Add(time.Hour) }},
	} {
		ref := testManifest()
		ref.Reference = cloneRows(ref.Reference)
		c.perturb(ref)
		ops := &opCounter{log: &strings.Builder{}}
		ops.attempt()
		ops.failAll(checkSurvey(out, ref))
		if ops.failed != 1 {
			t.Errorf("%s: perturbed reference not reported as a failure", c.name)
		}
	}
}

func TestGroundTruthViolationIsAFailure(t *testing.T) {
	m := testManifest()
	m.Reference[2][2] = "Low" // the scenario's uncongested ISP reported congested
	if errs := checkSurvey(lmsurveyOutput(t, m, m.Reference), m); len(errs) != 1 {
		t.Fatalf("want one ground-truth failure, got %v", errs)
	}
	m = testManifest()
	m.Reference[0][2] = "(no usable data)"
	if errs := checkGroundTruth(m.Reference); len(errs) != 1 {
		t.Fatalf("want one ground-truth failure, got %v", errs)
	}
}

func TestCompareLiveIsBitExact(t *testing.T) {
	sig := &timeseries.Series{Start: time.Unix(0, 0), Step: 30 * time.Minute, Values: []float64{1, math.NaN(), 3}}
	cls := core.Classification{Class: core.Severe, IsDaily: true, DailyAmplitude: 4.5, Peak: dsp.Peak{Freq: 1.0 / 24, P2P: 4.5}}
	v := &stream.Verdict{ASN: 65101, Probes: 8, Signal: sig, Classification: cls}
	batch := &core.Survey{Results: map[bgp.ASN]*core.ASResult{65101: {ASN: 65101, Probes: 8, Signal: sig, Classification: cls}}}
	if errs := compareLive([]*stream.Verdict{v}, nil, batch, nil); len(errs) > 0 {
		t.Fatalf("equal verdicts rejected: %v", errs)
	}
	off := cls
	off.DailyAmplitude = math.Nextafter(4.5, 5)
	batch.Results[65101].Classification = off
	if errs := compareLive([]*stream.Verdict{v}, nil, batch, nil); len(errs) != 1 {
		t.Fatalf("one-ulp amplitude difference not reported: %v", errs)
	}
}

func TestConservation(t *testing.T) {
	if errs := (conservation{Delivered: 10, Ingested: 9, Ignored: 1}).check(); len(errs) > 0 {
		t.Fatal(errs)
	}
	if errs := (conservation{Delivered: 10, Ingested: 8, Ignored: 1}).check(); len(errs) != 1 {
		t.Fatalf("a lost observation is not reported: %v", errs)
	}
	if errs := (conservation{Delivered: 10, Ingested: 9, Dropped: 1}).check(); len(errs) != 1 {
		t.Fatalf("a dropped observation is not reported: %v", errs)
	}
}

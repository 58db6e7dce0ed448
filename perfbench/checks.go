package main

// Output checks. Every failed check counts one failed operation, so the
// benchmark's failed count (and failed_ratio) is the sum of what these
// functions report.

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"

	lastmile "github.com/last-mile-congestion/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/core"
	"github.com/last-mile-congestion/lastmile/internal/report"
	"github.com/last-mile-congestion/lastmile/internal/stream"
)

// Row is one verdict row of lmsurvey's report: AS, probes, class,
// daily amplitude, peak frequency and signal sparkline, formatted as
// lmsurvey formats them.
type Row []string

// surveyRows renders a survey as lmsurvey's rows, one per AS in ASN
// order: classified ASes with their verdicts, skipped ASes with their
// reasons. probes gives an AS's input probe count.
func surveyRows(survey *lastmile.Survey, skipped []lastmile.SkippedAS, probes func(lastmile.ASN) int) []Row {
	reason := map[lastmile.ASN]error{}
	asns := survey.ASNs()
	for _, s := range skipped {
		reason[s.ASN] = s.Reason
		asns = append(asns, s.ASN)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	rows := make([]Row, 0, len(asns))
	for _, asn := range asns {
		res := survey.Results[asn]
		if res == nil {
			label := fmt.Sprintf("(unclassifiable: %v)", reason[asn])
			if errors.Is(reason[asn], lastmile.ErrNoUsableData) {
				label = "(no usable data)"
			}
			rows = append(rows, Row{asn.String(), strconv.Itoa(probes(asn)), label, "-", "-"})
			continue
		}
		rows = append(rows, Row{asn.String(), strconv.Itoa(res.Probes), res.Class.String(),
			fmt.Sprintf("%.2f", res.DailyAmplitude),
			fmt.Sprintf("%.3f", res.Peak.Freq),
			report.Sparkline(report.Downsample(res.Signal.Values, 48), 0)})
	}
	return rows
}

// cellSep splits a rendered table line into cells: report.Table pads
// cells with spaces and joins them with two more. The sparkline, the
// last of lmsurvey's six columns, renders gap bins as spaces, so a row
// splits into at most six cells and the rest of the line is the
// sparkline.
var cellSep = regexp.MustCompile(`  +`)

const surveyColumns = 6

// headerLine matches lmsurvey's summary line.
var headerLine = regexp.MustCompile(`^lmsurvey: (\d+) traceroutes, (\d+) probes, (\d+) AS group\(s\), (\S+) \.\. (\S+)(?: \((\d+) anchor traceroutes excluded\))?$`)

// surveyOutput is lmsurvey's parsed report.
type surveyOutput struct {
	facts surveyFacts
	rows  []Row
}

// parseSurveyOutput parses lmsurvey's stdout: the summary line, a blank
// line, then the verdict table (header, dashes, one row per AS).
func parseSurveyOutput(out string) (*surveyOutput, error) {
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < 4 {
		return nil, fmt.Errorf("lmsurvey printed %d lines, want a summary and a table", len(lines))
	}
	m := headerLine.FindStringSubmatch(lines[0])
	if m == nil {
		return nil, fmt.Errorf("unrecognised lmsurvey summary %q", lines[0])
	}
	so := &surveyOutput{}
	so.facts.Total, _ = strconv.Atoi(m[1])
	so.facts.Probes, _ = strconv.Atoi(m[2])
	so.facts.Groups, _ = strconv.Atoi(m[3])
	so.facts.Anchors, _ = strconv.Atoi(m[6]) // "" (no anchors) parses as 0
	var err error
	if err = so.facts.Start.UnmarshalText([]byte(m[4])); err == nil {
		err = so.facts.End.UnmarshalText([]byte(m[5]))
	}
	if err != nil {
		return nil, fmt.Errorf("lmsurvey summary window: %w", err)
	}
	if !strings.HasPrefix(lines[2], "AS ") || !strings.HasPrefix(lines[3], "---") {
		return nil, fmt.Errorf("no verdict table in lmsurvey output")
	}
	for _, line := range lines[4:] {
		so.rows = append(so.rows, Row(cellSep.Split(line, surveyColumns)))
	}
	return so, nil
}

// checkSurvey compares lmsurvey's output with the input set's facts and
// reference rows, and checks the scenario ground truth. It returns one
// error per mismatch.
func checkSurvey(out string, in *Manifest) []error {
	so, err := parseSurveyOutput(out)
	if err != nil {
		return []error{err}
	}
	var errs []error
	got, want := so.facts, in.Survey
	if got.Total != want.Total || got.Anchors != want.Anchors || got.Probes != want.Probes ||
		got.Groups != want.Groups || !got.Start.Equal(want.Start) || !got.End.Equal(want.End) {
		errs = append(errs, fmt.Errorf("lmsurvey summary %+v, want %+v", got, want))
	}
	errs = append(errs, compareRows(so.rows, in.Reference)...)
	return append(errs, checkGroundTruth(so.rows)...)
}

// compareRows reports every row that differs from the reference.
// Cells compare without surrounding spaces: the table trims trailing
// ones, and the cell split cannot tell a leading gap bin of the
// sparkline from padding.
func compareRows(got, want []Row) []error {
	if len(got) != len(want) {
		return []error{fmt.Errorf("%d verdict rows, reference has %d", len(got), len(want))}
	}
	var errs []error
	for i := range want {
		if rowKey(got[i]) != rowKey(want[i]) {
			errs = append(errs, fmt.Errorf("verdict row %d = %q, reference %q", i, got[i], want[i]))
		}
	}
	return errs
}

func rowKey(r Row) string {
	cells := make([]string, 0, len(r))
	for _, c := range r {
		cells = append(cells, strings.TrimSpace(c))
	}
	return strings.TrimRight(strings.Join(cells, "|"), "|")
}

// groundTruth is the Tokyo scenario's known answer, in ASN order: the
// three legacy-PPPoE ISPs are congested, the own-fiber ISP is not.
var groundTruth = []struct {
	as        string
	congested bool
}{{"AS65101", true}, {"AS65102", true}, {"AS65103", false}, {"AS65104", true}}

// checkGroundTruth checks the verdict rows against the scenario.
func checkGroundTruth(rows []Row) []error {
	if len(rows) != len(groundTruth) {
		return []error{fmt.Errorf("%d verdict rows, the scenario has %d ASes", len(rows), len(groundTruth))}
	}
	var errs []error
	for i, want := range groundTruth {
		r := rows[i]
		if len(r) < 3 || r[0] != want.as {
			errs = append(errs, fmt.Errorf("verdict row %d is %q, want %s", i, r, want.as))
			continue
		}
		switch class := r[2]; {
		case want.congested && (class == "None" || strings.HasPrefix(class, "(")):
			errs = append(errs, fmt.Errorf("%s is %s, the scenario congests it", want.as, class))
		case !want.congested && class != "None":
			errs = append(errs, fmt.Errorf("%s is %s, the scenario leaves it uncongested", want.as, class))
		}
	}
	return errs
}

// compareLive checks the daemon's final verdicts against a batch
// replay of the same window, as the serve soak test does: same ASes,
// classes, probe counts, and bit-identical amplitudes, peaks and
// signals.
func compareLive(verdicts []*stream.Verdict, skipped []stream.SkippedAS, batch *core.Survey, batchSkipped []core.SkippedAS) []error {
	var errs []error
	if len(verdicts) != batch.Len() {
		errs = append(errs, fmt.Errorf("%d live verdicts, batch replay has %d", len(verdicts), batch.Len()))
	}
	if len(skipped) != len(batchSkipped) {
		errs = append(errs, fmt.Errorf("%d live skips, batch replay has %d", len(skipped), len(batchSkipped)))
	}
	for _, v := range verdicts {
		b := batch.Results[v.ASN]
		if b == nil {
			errs = append(errs, fmt.Errorf("%v has a live verdict but none in the batch replay", v.ASN))
			continue
		}
		if err := sameVerdict(v, b); err != nil {
			errs = append(errs, fmt.Errorf("%v: %w", v.ASN, err))
		}
	}
	return errs
}

func sameVerdict(v *stream.Verdict, b *core.ASResult) error {
	if v.Probes != b.Probes || v.Class != b.Class || v.IsDaily != b.IsDaily {
		return fmt.Errorf("live {%d probes, %v, daily %v}, batch {%d, %v, %v}",
			v.Probes, v.Class, v.IsDaily, b.Probes, b.Class, b.IsDaily)
	}
	if math.Float64bits(v.DailyAmplitude) != math.Float64bits(b.DailyAmplitude) {
		return fmt.Errorf("live amplitude %v, batch %v", v.DailyAmplitude, b.DailyAmplitude)
	}
	if fmt.Sprintf("%#v", v.Peak) != fmt.Sprintf("%#v", b.Peak) {
		return fmt.Errorf("live peak %#v, batch %#v", v.Peak, b.Peak)
	}
	vs, bs := v.Signal, b.Signal
	if !vs.Start.Equal(bs.Start) || vs.Step != bs.Step || len(vs.Values) != len(bs.Values) {
		return errors.New("signal axes differ")
	}
	for i := range vs.Values {
		if math.Float64bits(vs.Values[i]) != math.Float64bits(bs.Values[i]) {
			return fmt.Errorf("signal[%d] live %v, batch %v", i, vs.Values[i], bs.Values[i])
		}
	}
	return nil
}

// conservation checks that every observation the sources handed out
// reached the engine: delivered = ingested + dropped + ignored (no
// usable last-mile segment), with nothing dropped.
type conservation struct {
	Delivered, Ingested, Dropped, Ignored int64
}

func (c conservation) check() []error {
	var errs []error
	if c.Delivered != c.Ingested+c.Dropped+c.Ignored {
		errs = append(errs, fmt.Errorf("delivered %d observations, engine accounts for %d ingested + %d dropped + %d ignored",
			c.Delivered, c.Ingested, c.Dropped, c.Ignored))
	}
	if c.Dropped != 0 {
		errs = append(errs, fmt.Errorf("engine dropped %d observations", c.Dropped))
	}
	return errs
}

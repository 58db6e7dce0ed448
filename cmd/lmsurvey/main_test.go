package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	lastmile "github.com/last-mile-congestion/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/telemetry"
)

var testT0 = time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)

// mkTrace builds a 2-hop traceroute with the given last-mile delta. A
// negative delta builds one with no public hop, so no last-mile segment.
func mkTrace(probeID int, ts time.Time, deltaMs float64) *lastmile.Result {
	priv := netip.MustParseAddr("192.168.1.1")
	pub := netip.MustParseAddr("203.0.113.1")
	r := &lastmile.Result{
		ProbeID: probeID, MsmID: 5004, Timestamp: ts, AF: 4,
		SrcAddr: netip.MustParseAddr("192.168.1.10"),
		DstAddr: netip.MustParseAddr("198.41.0.4"),
	}
	h1 := lastmile.HopResult{Hop: 1}
	h2 := lastmile.HopResult{Hop: 2}
	for i := 0; i < 3; i++ {
		h1.Replies = append(h1.Replies, lastmile.Reply{From: priv, RTT: 0.5, TTL: 64})
		h2.Replies = append(h2.Replies, lastmile.Reply{From: pub, RTT: 0.5 + deltaMs, TTL: 254})
	}
	r.Hops = []lastmile.HopResult{h1, h2}
	if deltaMs < 0 {
		r.Hops = r.Hops[:1]
	}
	return r
}

// testProbe is one probe of the test fleet.
type testProbe struct {
	id     int
	asn    lastmile.ASN
	anchor bool
	// delta gives the probe's last-mile delay at ts; ok false means the
	// probe is silent then.
	delta func(ts time.Time) (float64, bool)
}

// diurnal is a 2 ms baseline with a bump between 12:00 and 18:00.
func diurnal(bump float64) func(time.Time) (float64, bool) {
	return func(ts time.Time) (float64, bool) {
		if h := ts.Hour(); h >= 12 && h < 18 {
			return 2 + bump, true
		}
		return 2, true
	}
}

// testFleet covers every row kind lmsurvey prints: a Severe AS with an
// anchor, a flat AS, an AS only heard on its first day (mostly gaps, so
// unclassifiable), and an AS with no last-mile segment at all.
func testFleet() []testProbe {
	var fleet []testProbe
	for p := 1; p <= 4; p++ {
		fleet = append(fleet, testProbe{id: 100 + p, asn: 64500, delta: diurnal(5)})
	}
	fleet = append(fleet, testProbe{id: 105, asn: 64500, anchor: true, delta: diurnal(0)})
	for p := 1; p <= 3; p++ {
		fleet = append(fleet, testProbe{id: 200 + p, asn: 64501, delta: diurnal(0)})
	}
	for p := 1; p <= 3; p++ {
		fleet = append(fleet, testProbe{id: 300 + p, asn: 64502, delta: func(ts time.Time) (float64, bool) {
			return 2, ts.Before(testT0.AddDate(0, 0, 1))
		}})
	}
	fleet = append(fleet, testProbe{id: 401, asn: 64503, delta: func(time.Time) (float64, bool) { return -1, true }})
	return fleet
}

// archive is a test campaign written to disk in both encodings.
type archive struct {
	wire, jsonl, probes string
	// total counts every traceroute, anchors counts the anchor's.
	total, anchors int
}

// writeArchive writes six days of the test fleet, time-ordered, every
// 10 minutes, as a wire archive, a JSONL archive and probe metadata.
func writeArchive(t *testing.T) *archive {
	t.Helper()
	dir := t.TempDir()
	a := &archive{
		wire:   filepath.Join(dir, "survey.wire"),
		jsonl:  filepath.Join(dir, "survey.jsonl"),
		probes: filepath.Join(dir, "probes.json"),
	}
	var wireBuf, jsonBuf bytes.Buffer
	ww := lastmile.NewBinaryResultWriter(&wireBuf)
	jw := lastmile.NewResultWriter(&jsonBuf)
	fleet := testFleet()
	end := testT0.AddDate(0, 0, 6)
	for ts := testT0; ts.Before(end); ts = ts.Add(10 * time.Minute) {
		for _, p := range fleet {
			d, ok := p.delta(ts)
			if !ok {
				continue
			}
			r := mkTrace(p.id, ts, d)
			if err := ww.WriteResult(p.asn, r); err != nil {
				t.Fatal(err)
			}
			if err := jw.Write(r); err != nil {
				t.Fatal(err)
			}
			a.total++
			if p.anchor {
				a.anchors++
			}
		}
	}
	if err := ww.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	var infos []lastmile.ProbeInfo
	for _, p := range fleet {
		infos = append(infos, lastmile.ProbeInfo{ID: p.id, ASNv4: p.asn, CountryCode: "JP", IsAnchor: p.anchor})
	}
	meta, err := json.Marshal(infos)
	if err != nil {
		t.Fatal(err)
	}
	for path, data := range map[string][]byte{a.wire: wireBuf.Bytes(), a.jsonl: jsonBuf.Bytes(), a.probes: meta} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// survey runs lmsurvey and returns its standard output.
func survey(cfg config) (string, error) {
	var out bytes.Buffer
	err := run(&out, cfg)
	return out.String(), err
}

// reportLine returns the report row of asn.
func reportLine(t *testing.T, out string, asn lastmile.ASN) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, asn.String()+" ") {
			return line
		}
	}
	t.Fatalf("no row for %v in:\n%s", asn, out)
	return ""
}

func TestRunReportIdenticalAcrossEncodingsAndSplits(t *testing.T) {
	a := writeArchive(t)
	want, err := survey(config{in: a.wire, probes: a.probes, split: 1})
	if err != nil {
		t.Fatal(err)
	}
	if line := reportLine(t, want, 64500); !strings.Contains(line, "Severe") {
		t.Fatalf("AS64500 row = %q, want Severe", line)
	}
	if line := reportLine(t, want, 64501); !strings.Contains(line, "None") {
		t.Fatalf("AS64501 row = %q, want None", line)
	}
	for _, in := range []string{a.wire, a.jsonl} {
		for _, split := range []int{1, 2, 8} {
			got, err := survey(config{in: in, probes: a.probes, split: split, workers: split, shards: split})
			if err != nil {
				t.Fatalf("%s split=%d: %v", filepath.Base(in), split, err)
			}
			if got != want {
				t.Fatalf("%s split=%d: report differs\ngot:\n%s\nwant:\n%s", filepath.Base(in), split, got, want)
			}
		}
	}
}

func TestRunProbesExcludesAnchor(t *testing.T) {
	a := writeArchive(t)
	out, err := survey(config{in: a.wire, probes: a.probes, split: 1})
	if err != nil {
		t.Fatal(err)
	}
	summary := strings.SplitN(out, "\n", 2)[0]
	for _, want := range []string{
		"lmsurvey: " + strconv.Itoa(a.total) + " traceroutes, 11 probes, 4 AS group(s), ",
		" (" + strconv.Itoa(a.anchors) + " anchor traceroutes excluded)",
	} {
		if !strings.Contains(summary, want) {
			t.Fatalf("summary %q lacks %q", summary, want)
		}
	}
	if fields := strings.Fields(reportLine(t, out, 64500)); fields[1] != "4" {
		t.Fatalf("AS64500 probes = %s, want 4 (anchor excluded)", fields[1])
	}

	// Without metadata the anchor is an ordinary probe of its AS.
	out, err = survey(config{in: a.wire, split: 1})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "anchor") {
		t.Fatalf("anchor excluded without -probes:\n%s", out)
	}
	if fields := strings.Fields(reportLine(t, out, 64500)); fields[1] != "5" {
		t.Fatalf("AS64500 probes = %s, want 5 without -probes", fields[1])
	}
}

func TestRunEmptyInput(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := survey(config{in: empty, split: 1})
	if err == nil || err.Error() != "no traceroutes in input" {
		t.Fatalf("err = %v, want no traceroutes in input", err)
	}
	if out != "" {
		t.Fatalf("empty input printed %q", out)
	}
}

func TestRunTruncatedWireFails(t *testing.T) {
	a := writeArchive(t)
	data, err := os.ReadFile(a.wire)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.wire")
	if err := os.WriteFile(cut, data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := survey(config{in: cut, probes: a.probes, split: 1})
	if err == nil {
		t.Fatalf("truncated archive surveyed without error:\n%s", out)
	}
	if out != "" {
		t.Fatalf("truncated archive printed a partial report:\n%s", out)
	}
}

func TestRunSkippedASLabels(t *testing.T) {
	a := writeArchive(t)
	out, err := survey(config{in: a.wire, probes: a.probes, split: 1})
	if err != nil {
		t.Fatal(err)
	}
	gappy := reportLine(t, out, 64502)
	if n := strings.Count(gappy, "unclassifiable:"); n != 1 {
		t.Fatalf("AS64502 row = %q: %d unclassifiable labels, want 1", gappy, n)
	}
	if !strings.Contains(gappy, "gaps") {
		t.Fatalf("AS64502 row = %q, want the gap reason", gappy)
	}
	if dry := reportLine(t, out, 64503); !strings.Contains(dry, "(no usable data)") {
		t.Fatalf("AS64503 row = %q, want (no usable data)", dry)
	}
}

// TestRunMetricsConserve pins the feed's telemetry: every traceroute fed
// to the survey is either ingested by an engine or counted unusable.
func TestRunMetricsConserve(t *testing.T) {
	a := writeArchive(t)
	// The registry is process-wide, so count this run's increments only.
	before := conserved(lastmile.DefaultMetrics().Snapshot())
	path := filepath.Join(t.TempDir(), "metrics.prom")
	if _, err := survey(config{in: a.wire, probes: a.probes, metrics: path, split: 2, shards: 4}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var ingested, unusable float64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", sc.Text(), err)
		}
		switch {
		case strings.HasPrefix(name, "engine_ingest_total{"):
			ingested += v
		case name == "survey_unusable_total":
			unusable += v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	ingested -= before.ingested
	unusable -= before.unusable
	fed := float64(a.total - a.anchors)
	if unusable == 0 {
		t.Fatal("survey_unusable_total did not count AS64503's traceroutes")
	}
	if ingested+unusable != fed {
		t.Fatalf("fed %v traceroutes, but ingested %v + unusable %v = %v", fed, ingested, unusable, ingested+unusable)
	}
}

// conservedCounts are the two counters the survey's feed conserves.
type conservedCounts struct{ ingested, unusable float64 }

func conserved(snaps []telemetry.Snapshot) conservedCounts {
	var c conservedCounts
	for _, s := range snaps {
		switch {
		case strings.HasPrefix(s.Name, "engine_ingest_total{"):
			c.ingested += s.Value
		case s.Name == "survey_unusable_total":
			c.unusable += s.Value
		}
	}
	return c
}

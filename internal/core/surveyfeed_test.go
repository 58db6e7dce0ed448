package core

import (
	"math"
	"testing"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/traceroute"
)

// TestSurveyFeedRetainsNoResult feeds every result through one reused
// Result, as a scanner hands them over, and requires the RunSurvey
// verdicts bit for bit: the feed must copy what it needs and keep no
// reference to the caller's storage.
func TestSurveyFeedRetainsNoResult(t *testing.T) {
	results := diurnalResults(64500, 4, 6, 5)
	results = append(results, diurnalResults(64501, 3, 6, 0)...)
	want, _, err := RunSurvey("feed", results, SurveyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	feed := NewSurveyFeed(2, SurveyOptions{})
	var r traceroute.Result
	for _, ar := range results {
		r.CopyFrom(ar.Result)
		feed.Add(ar.ASN, &r)
	}
	// Scribble over the reused storage before finishing.
	for i := range r.Hops {
		for j := range r.Hops[i].Replies {
			r.Hops[i].Replies[j].RTT = math.NaN()
		}
	}
	got, _, err := feed.Finish("feed")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("Len %d vs %d", got.Len(), want.Len())
	}
	for asn, w := range want.Results {
		g := got.Results[asn]
		if g == nil || g.Class != w.Class || math.Float64bits(g.DailyAmplitude) != math.Float64bits(w.DailyAmplitude) {
			t.Fatalf("AS%v: got %+v, want %+v", asn, g, w)
		}
	}
}

func TestSurveyFeedBounds(t *testing.T) {
	feed := NewSurveyFeed(1, SurveyOptions{})
	if _, _, ok := feed.Bounds(); ok {
		t.Fatal("Bounds ok before any Add")
	}
	if _, _, err := feed.Finish("empty"); err == nil {
		t.Fatal("Finish on an empty feed: want error")
	}

	feed = NewSurveyFeed(1, SurveyOptions{})
	feed.Add(64500, mkSurveyTrace(1, surveyT0.Add(47*time.Minute), 2))
	feed.Add(64500, mkSurveyTrace(1, surveyT0.Add(5*time.Minute), 2))
	feed.Add(64500, mkSurveyTrace(1, surveyT0.Add(20*time.Minute), 2))
	start, end, ok := feed.Bounds()
	if !ok || !start.Equal(surveyT0) || !end.Equal(surveyT0.Add(time.Hour)) {
		t.Fatalf("Bounds = %v, %v, %v; want %v, %v", start, end, ok, surveyT0, surveyT0.Add(time.Hour))
	}

	pinned := surveyT0.AddDate(0, 0, 1)
	feed = NewSurveyFeed(1, SurveyOptions{End: pinned})
	feed.Add(64500, mkSurveyTrace(1, surveyT0.Add(5*time.Minute), 2))
	if start, end, _ := feed.Bounds(); !start.Equal(surveyT0) || !end.Equal(pinned) {
		t.Fatalf("pinned Bounds = %v, %v; want %v, %v", start, end, surveyT0, pinned)
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// testSize keeps test inputs small: two survey days (also the live
// window), a two-day backlog that covers the whole window, one live
// day.
var testSize = Size{SurveyDays: 2, CatchupDays: 2, LiveDays: 1}

// smallInputs builds the test input set for seed 7 once per test
// binary.
var smallInputs = struct {
	once sync.Once
	dir  string
	in   *Inputs
	err  error
}{}

func testInputs(t *testing.T) *Inputs {
	t.Helper()
	smallInputs.once.Do(func() {
		dir, err := os.MkdirTemp("", "perfbench-inputs-")
		if err != nil {
			smallInputs.err = err
			return
		}
		smallInputs.dir = dir
		smallInputs.in, smallInputs.err = buildInputs(filepath.Join(dir, cacheEntry(7, testSize)), 7, testSize)
		if smallInputs.err == nil {
			smallInputs.err = smallInputs.in.ensureEncoding("jsonl")
		}
	})
	if smallInputs.err != nil {
		t.Fatal(smallInputs.err)
	}
	return smallInputs.in
}

func TestInputsAreSeeded(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three input sets")
	}
	a := testInputs(t)
	dir := t.TempDir()
	again, err := buildInputs(filepath.Join(dir, "again"), 7, testSize)
	if err != nil {
		t.Fatal(err)
	}
	other, err := buildInputs(filepath.Join(dir, "other"), 8, testSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []*Inputs{a, again, other} {
		if err := in.ensureEncoding("jsonl"); err != nil {
			t.Fatal(err)
		}
	}
	files, err := os.ReadDir(a.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 13 {
		t.Fatalf("input set has %d files, want 13", len(files))
	}
	for _, f := range files {
		want, err := os.ReadFile(a.Path(f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(again.Path(f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between two builds of seed 7", f.Name())
		}
	}
	for _, name := range []string{"survey.wire", "survey.jsonl", "live-isp-a.wire", "checkpoint.state", "manifest.json"} {
		x, err := os.ReadFile(a.Path(name))
		if err != nil {
			t.Fatal(err)
		}
		y, err := os.ReadFile(other.Path(name))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(x, y) {
			t.Errorf("%s is identical for seeds 7 and 8", name)
		}
	}
}

func TestInputsFacts(t *testing.T) {
	in := testInputs(t)
	if in.Survey.Probes != 27 || in.Survey.Groups != 4 || in.Survey.Anchors == 0 {
		t.Fatalf("survey facts %+v: want 27 probes in 4 ASes and an excluded anchor", in.Survey)
	}
	if len(in.Targets) != 4 || len(in.Reference) != 4 {
		t.Fatalf("%d targets, %d reference rows; want 4 each", len(in.Targets), len(in.Reference))
	}
	for _, tg := range in.Targets {
		if tg.Backlog == 0 || tg.Backlog >= tg.Records {
			t.Errorf("%s: backlog %d of %d records", tg.Name, tg.Backlog, tg.Records)
		}
	}
	if _, ok := loadInputs(in.Dir); !ok {
		t.Fatal("a built input set does not load")
	}
	if _, ok := loadInputs(t.TempDir()); ok {
		t.Fatal("a directory without a manifest loads as an input set")
	}
}

func TestPruneCacheKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"tokyo-a", "tokyo-b", "tokyo-c", "tokyo-cur", "other"} {
		if err := os.Mkdir(filepath.Join(dir, name), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := pruneCache(dir, "tokyo-cur", 1); err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 3 {
		t.Fatalf("%d entries left, want the current set, one other and the unrelated directory", len(left))
	}
}

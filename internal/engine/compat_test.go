package engine

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/bgp"
)

// compatOpts are the engine options behind testdata/heap_layout.snap.
var compatOpts = Options{Window: 24 * time.Hour, MaxLateness: 6 * time.Hour}

// compatFeed feeds e a deterministic stream: 2 ASes × 2 probes, one
// traceroute every 5 minutes from start for the given duration, each
// carrying 4–9 samples quantised to the microsecond (so bins hold
// duplicates) with both odd and even per-bin totals.
func compatFeed(e *Engine, seed int64, start time.Time, d time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	samples := make([]float64, 0, 9)
	for ts := start; ts.Before(start.Add(d)); ts = ts.Add(5 * time.Minute) {
		for asn := bgp.ASN(64510); asn < 64512; asn++ {
			for p := 1; p <= 2; p++ {
				samples = samples[:0]
				for n := 4 + rng.Intn(6); n > 0; n-- {
					samples = append(samples, math.Round((2+rng.ExpFloat64()*3)*1e3)/1e3)
				}
				e.Observe(asn, p, ts, samples)
			}
		}
	}
}

// TestRestoreHeapLayoutCheckpoint pins checkpoint compatibility with
// the two-heap layout written when every insert sifted through a
// max-heap/min-heap pair. testdata/heap_layout.snap is that engine's
// Snapshot after compatFeed(e, 1, t0, 2h) under compatOpts. Restoring
// it must re-snapshot byte-identically, and continuing it must produce
// signals bit-identical to a fresh engine fed the whole stream.
func TestRestoreHeapLayoutCheckpoint(t *testing.T) {
	snap, err := os.ReadFile("testdata/heap_layout.snap")
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(bytes.NewReader(snap), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := restored.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), snap) {
		t.Fatal("restore→snapshot of a heap-layout checkpoint is not byte-stable")
	}

	fresh := New(compatOpts)
	compatFeed(fresh, 1, t0, 2*time.Hour)
	nBins := int(compatOpts.Window / restored.Options().BinWidth)
	snapEqual(t, restored, fresh, t0, nBins)

	// Continue both: the first half hour lands in the checkpoint's last
	// bin, so restored heaps and fresh appends settle together.
	compatFeed(restored, 2, t0.Add(90*time.Minute), 3*time.Hour)
	compatFeed(fresh, 2, t0.Add(90*time.Minute), 3*time.Hour)
	snapEqual(t, restored, fresh, t0, nBins)
}

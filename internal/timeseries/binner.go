package timeseries

import (
	"errors"
	"time"
)

// MedianBinner accumulates raw (time, value) samples into fixed-width bins
// and produces the per-bin median as a Series. The last-mile pipeline
// feeds it the 216 pairwise RTT samples each probe produces per 30-minute
// window (§2.1) and reads back a median-RTT series. Bins are
// IncrementalBin cells, so medians use the exact same arithmetic as the
// streaming engine — the batch result is a replay of the incremental
// one. Series settles each written bin, so it mutates the cells and is
// not safe for concurrent use.
type MedianBinner struct {
	start time.Time
	step  time.Duration
	bins  []IncrementalBin
}

// NewMedianBinner creates a binner covering [start, end) with the given
// bin width.
func NewMedianBinner(start, end time.Time, step time.Duration) (*MedianBinner, error) {
	if step <= 0 {
		return nil, errors.New("timeseries: step must be positive")
	}
	if !start.Before(end) {
		return nil, errors.New("timeseries: start must precede end")
	}
	n := int(end.Sub(start) / step)
	if end.Sub(start)%step != 0 {
		n++
	}
	return &MedianBinner{
		start: start,
		step:  step,
		bins:  make([]IncrementalBin, n),
	}, nil
}

// indexOf returns the bin index for t, or -1 when t is out of range.
func (b *MedianBinner) indexOf(t time.Time) int {
	if t.Before(b.start) {
		return -1
	}
	i := int(t.Sub(b.start) / b.step)
	if i >= len(b.bins) {
		return -1
	}
	return i
}

// Add records one sample at time t. Samples outside the binner's range are
// silently dropped: built-in measurement streams routinely spill a few
// traceroutes past the period boundary and those are not errors.
func (b *MedianBinner) Add(t time.Time, v float64) {
	if i := b.indexOf(t); i >= 0 {
		b.bins[i].Add(v)
	}
}

// AddGroup records a group of samples originating from one measurement
// (one traceroute) at time t, incrementing the bin's group count used by
// the minimum-traceroutes sanity check.
func (b *MedianBinner) AddGroup(t time.Time, vs []float64) {
	if i := b.indexOf(t); i >= 0 {
		b.bins[i].AddGroup(vs)
	}
}

// Bin exposes bin i's IncrementalBin — the snapshot/restore surface:
// serialize each cell via IncrementalBin.Snapshot, rebuild with
// RestoreMedianBinner.
func (b *MedianBinner) Bin(i int) *IncrementalBin { return &b.bins[i] }

// Merge folds other — a binner with the identical axis, fed a different
// slice of the same sample stream — into b cell by cell. Medians are
// order statistics, so the merged binner's Series is bit-identical to
// one binner having seen the union of both streams.
func (b *MedianBinner) Merge(other *MedianBinner) error {
	if !b.start.Equal(other.start) || b.step != other.step || len(b.bins) != len(other.bins) {
		return errors.New("timeseries: cannot merge binners with different axes")
	}
	for i := range other.bins {
		b.bins[i].Merge(&other.bins[i])
	}
	return nil
}

// RestoreMedianBinner rebuilds a binner from restored cells. bins must
// hold one validated cell per bin (see RestoreBin); the slice is
// retained.
func RestoreMedianBinner(start time.Time, step time.Duration, bins []IncrementalBin) (*MedianBinner, error) {
	if step <= 0 {
		return nil, errors.New("timeseries: step must be positive")
	}
	if len(bins) == 0 {
		return nil, errors.New("timeseries: no bins to restore")
	}
	return &MedianBinner{start: start, step: step, bins: bins}, nil
}

// SampleCount returns the number of raw samples in bin i.
func (b *MedianBinner) SampleCount(i int) int { return b.bins[i].Len() }

// GroupCount returns the number of groups (traceroutes) recorded in bin i.
func (b *MedianBinner) GroupCount(i int) int { return b.bins[i].Groups() }

// Bins returns the number of bins.
func (b *MedianBinner) Bins() int { return len(b.bins) }

// Series computes the per-bin median, settling each bin written since
// the last read (see IncrementalBin). Bins with fewer than minGroups
// groups become gaps (NaN) — the paper's "discard traceroutes in bins that
// have less than 3 traceroutes" sanity check. Pass 0 to keep every
// non-empty bin.
func (b *MedianBinner) Series(minGroups int) *Series {
	out, err := NewSeries(b.start, b.step, len(b.bins))
	if err != nil {
		// Construction parameters were validated by NewMedianBinner.
		panic("timeseries: invalid binner state: " + err.Error())
	}
	for i := range b.bins {
		if b.bins[i].Groups() < minGroups {
			continue
		}
		if m, ok := b.bins[i].Median(); ok {
			out.Values[i] = m
		}
	}
	return out
}

// CountSeries returns the group count per bin as a float series, useful
// for operational dashboards of probe liveness.
func (b *MedianBinner) CountSeries() *Series {
	out, err := NewSeries(b.start, b.step, len(b.bins))
	if err != nil {
		panic("timeseries: invalid binner state: " + err.Error())
	}
	for i := range b.bins {
		out.Values[i] = float64(b.bins[i].Groups())
	}
	return out
}

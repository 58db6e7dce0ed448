package timeseries

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"github.com/last-mile-congestion/lastmile/internal/stats"
)

// IncrementalBin accumulates the raw last-mile samples of one (probe,
// bin) cell and reports their exact median. Adds only append; the bin
// settles on the first read after a write: an introselect moves the
// ⌈n/2⌉ smallest samples to the front, then Floyd's heapify arranges
// them as a max-heap of the lower half and the rest as a min-heap of the
// upper half (the classic two-heap order statistic). An insert is O(1)
// amortised and a read O(n) once per write burst, O(1) while settled:
// the paper needs one median per 30-minute bin of ~216 samples, not one
// per sample.
//
// A settled bin is exactly the two-heap state the snapshot format
// carries, so Snapshot, RestoreBin and ValidateHeapState keep their
// contracts; the heap layout depends on arrival order, never an
// observable value.
//
// The median is bit-for-bit identical to stats.Median over the same
// multiset: order statistics are permutation-invariant, and the
// even-count case combines the two middle elements with the shared
// stats.Midpoint arithmetic. That identity is what lets the streaming
// monitor and the batch pipeline share one binning engine — a batch run
// is literally a replay of the incremental one.
//
// Reads settle, so they mutate: Median and Snapshot are not safe for
// concurrent use, with each other or with writes. The engine reads bins
// only under its shard mutex.
//
// Samples must be finite: NaN fails every ordering comparison and would
// corrupt the heap invariant. The last-mile estimator only emits finite
// values (it drops NaN/Inf/non-positive RTTs before differencing).
type IncrementalBin struct {
	// vals holds every sample. When settled, vals[:k] with k = ⌈n/2⌉ is
	// a max-heap of the lower half and vals[k:] a min-heap of the upper
	// half, with vals[0] <= vals[k].
	vals    []float64
	settled bool
	// groups counts distinct measurement groups (traceroutes), the unit
	// of the paper's "fewer than 3 traceroutes" discard rule.
	groups int
}

// Add inserts one sample.
//
//lmvet:hotpath
func (b *IncrementalBin) Add(v float64) {
	b.vals[b.grow(1)] = v
	b.settled = false
}

// AddGroup inserts one measurement group (one traceroute's samples) and
// increments the group count.
//
//lmvet:hotpath
func (b *IncrementalBin) AddGroup(vs []float64) {
	copy(b.vals[b.grow(len(vs)):], vs)
	b.settled = false
	b.groups++
}

// grow extends vals by extra samples and returns the old length.
// Capacity grows to the next power of two, the size the two heap halves
// reached when each grew by append one sample at a time.
func (b *IncrementalBin) grow(extra int) int {
	n := len(b.vals)
	if need := n + extra; need > cap(b.vals) {
		vals := make([]float64, n, 1<<bits.Len(uint(need-1))) //lmvet:ignore allocguard sample storage grows by amortised doubling; steady-state inserts reuse capacity
		copy(vals, b.vals)
		b.vals = vals
	}
	b.vals = b.vals[:n+extra]
	return n
}

// Len returns the number of samples.
func (b *IncrementalBin) Len() int { return len(b.vals) }

// Groups returns the number of measurement groups recorded via AddGroup.
func (b *IncrementalBin) Groups() int { return b.groups }

// Median returns the current exact median; ok is false for an empty bin.
func (b *IncrementalBin) Median() (v float64, ok bool) {
	n := len(b.vals)
	if n == 0 {
		return 0, false
	}
	b.settle()
	if n%2 == 1 {
		return b.vals[0], true
	}
	return stats.Midpoint(b.vals[0], b.vals[n/2]), true
}

// Snapshot exposes the bin's serializable state: the two heap backing
// slices (lower-half max-heap, upper-half min-heap) and the group
// count. The returned slices alias the bin's storage and are valid only
// until the next Add/AddGroup/Merge — snapshotting callers must encode
// or copy them before mutating the bin, the same valid-until-next-call
// contract the wire scanners use.
func (b *IncrementalBin) Snapshot() (lo, hi []float64, groups int) {
	b.settle()
	k := (len(b.vals) + 1) / 2
	return b.vals[:k:k], b.vals[k:], b.groups
}

// Merge folds other's samples and group count into b. The median of the
// merged bin is bit-identical to replaying the union of both bins'
// inputs through one bin in any order: the median is an exact order
// statistic, which is permutation-invariant, and the even-count
// midpoint uses the shared stats.Midpoint arithmetic either way. Only
// the internal heap layout depends on merge order, never an observable
// value — TestIncrementalBinMergeIsUnionReplay pins this. other is
// unchanged.
func (b *IncrementalBin) Merge(other *IncrementalBin) {
	copy(b.vals[b.grow(len(other.vals)):], other.vals)
	b.settled = false
	b.groups += other.groups
}

// settle restores the two-heap layout after writes: select the ⌈n/2⌉
// smallest samples into the front, then heapify both halves.
func (b *IncrementalBin) settle() {
	if b.settled {
		return
	}
	k := (len(b.vals) + 1) / 2
	selectLower(b.vals, k, 2*bits.Len(uint(len(b.vals))))
	heapifyMax(b.vals[:k])
	heapifyMin(b.vals[k:])
	b.settled = true
}

// Heap-state validation errors returned by ValidateHeapState and
// RestoreBin. Both are wrapped with position context; match with
// errors.Is.
var (
	// ErrHeapInvariant marks heap-state slices that violate the two-heap
	// structure: unbalanced halves, a broken heap ordering, or an upper
	// half overlapping the lower one.
	ErrHeapInvariant = errors.New("timeseries: two-heap invariant violated")
	// ErrNotFinite marks a NaN or infinite sample, which the bin's
	// ordering comparisons cannot handle.
	ErrNotFinite = errors.New("timeseries: non-finite sample in heap state")
)

// ValidateHeapState checks that (lo, hi) is a well-formed two-heap
// median state: every sample finite, len(lo) == len(hi) or len(hi)+1,
// lo a max-heap, hi a min-heap, and max(lo) <= min(hi). It is the
// shared validation behind RestoreBin and the wire snapshot decoder, so
// a corrupted or adversarial snapshot can never smuggle a broken heap
// into a live engine.
func ValidateHeapState(lo, hi []float64) error {
	for _, h := range [2][]float64{lo, hi} {
		for i, v := range h {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: sample %d is %v", ErrNotFinite, i, v)
			}
		}
	}
	if len(lo) != len(hi) && len(lo) != len(hi)+1 {
		return fmt.Errorf("%w: halves of %d and %d samples", ErrHeapInvariant, len(lo), len(hi))
	}
	if err := validateHeap(lo, true); err != nil {
		return fmt.Errorf("lower half: %w", err)
	}
	if err := validateHeap(hi, false); err != nil {
		return fmt.Errorf("upper half: %w", err)
	}
	if len(lo) > 0 && len(hi) > 0 && lo[0] > hi[0] {
		return fmt.Errorf("%w: lower-half max %v exceeds upper-half min %v", ErrHeapInvariant, lo[0], hi[0])
	}
	return nil
}

// validateHeap checks the parent-dominates-children ordering of a
// max-heap, or of a min-heap when isMax is false.
func validateHeap(h []float64, isMax bool) error {
	for i := 1; i < len(h); i++ {
		if parent := h[(i-1)/2]; isMax && h[i] > parent || !isMax && h[i] < parent {
			return fmt.Errorf("%w: element %d out of order", ErrHeapInvariant, i)
		}
	}
	return nil
}

// RestoreBin reconstructs an IncrementalBin from snapshotted heap
// state, re-validating the two-heap invariants first — restoring never
// trusts its input, so a bin rebuilt from a snapshot behaves exactly
// like one built by Add calls. lo and hi are copied into one allocation
// and the bin starts settled, so a restored bin re-snapshots byte for
// byte without settle work; callers keep ownership of lo and hi.
func RestoreBin(lo, hi []float64, groups int) (*IncrementalBin, error) {
	if err := ValidateHeapState(lo, hi); err != nil {
		return nil, err
	}
	if groups < 0 {
		return nil, fmt.Errorf("%w: negative group count %d", ErrHeapInvariant, groups)
	}
	vals := make([]float64, len(lo)+len(hi))
	copy(vals[copy(vals, lo):], hi)
	return &IncrementalBin{vals: vals, settled: true, groups: groups}, nil
}

// selectLower reorders xs so that xs[:k] holds its k smallest samples,
// for k <= len(xs), k >= 1 unless xs is empty. It is an introselect: Hoare-partition
// quickselect on a median-of-three pivot for at most budget rounds,
// then a heap selection over what remains, so archive-controlled input
// costs O(n log n) at worst rather than quadratic. It reports whether
// the heap fallback ran.
func selectLower(xs []float64, k, budget int) (fellBack bool) {
	t := k - 1 // the k-th smallest lands at xs[t]
	lo, hi := 0, len(xs)-1
	for lo < hi {
		if budget == 0 {
			heapSelect(xs[lo:hi+1], k-lo)
			return true
		}
		budget--
		// Median-of-three pivot value; Wirth's partition then leaves
		// xs[lo..j] <= pivot <= xs[i..hi] with any gap equal to pivot.
		a, m, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi]
		if a > c {
			a, c = c, a
		}
		pivot := m
		if m < a {
			pivot = a
		} else if m > c {
			pivot = c
		}
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for pivot < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if j < t {
			lo = i
		}
		if t < i {
			hi = j
		}
	}
	return false
}

// heapSelect moves the m smallest samples of xs into xs[:m] (as a
// max-heap) in O(len(xs) log m).
func heapSelect(xs []float64, m int) {
	h := xs[:m]
	heapifyMax(h)
	for j := m; j < len(xs); j++ {
		if xs[j] < h[0] {
			h[0], xs[j] = xs[j], h[0]
			siftDownMax(h, 0)
		}
	}
}

// heapifyMax arranges h as a max-heap (Floyd's bottom-up build, O(n)).
func heapifyMax(h []float64) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownMax(h, i)
	}
}

// heapifyMin arranges h as a min-heap.
func heapifyMin(h []float64) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownMin(h, i)
	}
}

func siftDownMax(h []float64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] > h[c] {
			c++
		}
		if h[c] <= h[i] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func siftDownMin(h []float64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[c] >= h[i] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

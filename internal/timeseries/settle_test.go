package timeseries

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"github.com/last-mile-congestion/lastmile/internal/stats"
)

// extremeSamples are what a bin program can draw besides small
// quantised samples: the float range's edges, where Midpoint's overflow
// handling matters.
var extremeSamples = [...]float64{math.MaxFloat64, -math.MaxFloat64, 1e-300, -5e-324, 1e300}

// sample decodes one finite, never negative-zero sample from two bytes.
// Most are multiples of 1/8 in [-16, 16), so bins hold duplicates.
func sample(hi, lo byte) float64 {
	if hi >= 0xf0 {
		return extremeSamples[int(lo)%len(extremeSamples)]
	}
	if v := int16(binary.BigEndian.Uint16([]byte{hi, lo})) >> 4; v != 0 {
		return float64(v) / 8
	}
	return 0
}

// runBinProgram interprets data as a sequence of operations on two bins
// and checks the settle contract after each one against a plain
// multiset model: the median equals stats.Median bit for bit, every
// Snapshot passes ValidateHeapState, and Restore→Snapshot is stable.
func runBinProgram(t *testing.T, data []byte) {
	t.Helper()
	if len(data) > 2048 {
		data = data[:2048] // bounds the quadratic-on-ties oracle's cost
	}
	var bins [2]*IncrementalBin
	var model [2][]float64
	var groups [2]int
	bins[0], bins[1] = &IncrementalBin{}, &IncrementalBin{}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return c
	}
	for len(data) > 0 {
		op := next()
		x := int(op>>7) & 1
		b := bins[x]
		switch op % 6 {
		case 0:
			v := sample(next(), next())
			b.Add(v)
			model[x] = append(model[x], v)
		case 1:
			n := int(next() % 24)
			vs := make([]float64, n)
			for i := range vs {
				vs[i] = sample(next(), next())
			}
			b.AddGroup(vs)
			model[x] = append(model[x], vs...)
			groups[x]++
		case 2:
			got, ok := b.Median()
			want, err := stats.Median(model[x])
			if (err == nil) != ok {
				t.Fatalf("Median ok=%v on %d samples", ok, len(model[x]))
			}
			if ok && math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Median = %v, stats.Median = %v over %v", got, want, model[x])
			}
		case 3:
			y := 1 - x
			if len(model[x])+len(model[y]) > 1024 {
				// Repeated cross-merges grow like Fibonacci, and the
				// stats.Median oracle is quadratic on ties.
				continue
			}
			b.Merge(bins[y])
			model[x] = append(model[x], model[y]...)
			groups[x] += groups[y]
		case 4, 5:
			lo, hi, g := b.Snapshot()
			if err := ValidateHeapState(lo, hi); err != nil {
				t.Fatalf("Snapshot of %d samples: %v", b.Len(), err)
			}
			if op%6 == 5 {
				r, err := RestoreBin(lo, hi, g)
				if err != nil {
					t.Fatal(err)
				}
				rlo, rhi, rg := r.Snapshot()
				if !sameBits(lo, rlo) || !sameBits(hi, rhi) || rg != g {
					t.Fatal("Restore→Snapshot is not stable")
				}
				bins[x] = r
			}
		}
		if bins[x].Len() != len(model[x]) || bins[x].Groups() != groups[x] {
			t.Fatalf("Len/Groups = %d/%d, want %d/%d", bins[x].Len(), bins[x].Groups(), len(model[x]), groups[x])
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func FuzzIncrementalBin(f *testing.F) {
	f.Add([]byte{1, 9, 0, 0, 0, 1, 0, 2, 5, 2})
	f.Add([]byte{0x81, 3, 0xf0, 0, 0xf1, 1, 0xf2, 3, 3, 2, 5, 0, 7, 7, 2})
	f.Add([]byte{0, 0xf1, 1, 0, 0xf0, 0, 2}) // median of {-MaxFloat64, MaxFloat64}
	f.Fuzz(runBinProgram)
}

// TestIncrementalBinSettleContract is FuzzIncrementalBin's seeded
// deterministic twin: the same invariants over random programs.
func TestIncrementalBinSettleContract(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 400; i++ {
		data := make([]byte, rng.Intn(600))
		rng.Read(data)
		runBinProgram(t, data)
	}
}

// TestIncrementalBinAdversarialSelection feeds single bins the classic
// quickselect killers and checks the median against stats.Median. The
// organ-pipe and median-of-three-killer inputs must exhaust the
// quickselect budget and finish in the heap fallback; a zero budget
// forces the fallback on every pattern.
func TestIncrementalBinAdversarialSelection(t *testing.T) {
	patterns := []struct {
		name     string
		at       func(i, n int) float64
		fallback bool
	}{
		{"sorted", func(i, n int) float64 { return float64(i) }, false},
		{"reversed", func(i, n int) float64 { return float64(n - i) }, false},
		{"all-equal", func(i, n int) float64 { return 7 }, false},
		{"organ-pipe", func(i, n int) float64 { return float64(min(i, n-1-i)) }, true},
		{"median-of-3-killer", musserKiller, true},
	}
	for _, p := range patterns {
		for _, n := range []int{1, 2, 3, 216, 1001, 100000} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = p.at(i, n)
			}
			var b IncrementalBin
			b.AddGroup(xs)
			got, _ := b.Median()
			want := xs[0]
			if p.name != "all-equal" {
				// stats.Median's Lomuto quickselect is itself quadratic
				// on ties (seconds at 10⁵ equal samples), so the
				// all-equal reference is the one value it can return.
				var err error
				if want, err = stats.Median(xs); err != nil {
					t.Fatal(err)
				}
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s n=%d: median %v, want %v", p.name, n, got, want)
			}
			if lo, hi, _ := b.Snapshot(); ValidateHeapState(lo, hi) != nil {
				t.Fatalf("%s n=%d: settled state is not a valid two-heap", p.name, n)
			}
			k := (n + 1) / 2
			for _, budget := range []int{0, 2 * bits.Len(uint(n))} {
				ys := append([]float64(nil), xs...)
				fellBack := selectLower(ys, k, budget)
				if budget > 0 && n == 100000 && fellBack != p.fallback {
					t.Errorf("%s n=%d: fallback = %v, want %v", p.name, n, fellBack, p.fallback)
				}
				lowMax, highMin := math.Inf(-1), math.Inf(1)
				for _, v := range ys[:k] {
					lowMax = max(lowMax, v)
				}
				for _, v := range ys[k:] {
					highMin = min(highMin, v)
				}
				if lowMax > highMin {
					t.Fatalf("%s n=%d budget=%d: lower part max %v exceeds upper part min %v", p.name, n, budget, lowMax, highMin)
				}
			}
		}
	}
}

// musserKiller is Musser's median-of-3 killer: the sequence that keeps
// a median-of-three quickselect choosing a near-extreme pivot.
func musserKiller(i, n int) float64 {
	k, j := n/2, i+1
	switch {
	case j > k:
		return float64(2 * (j - k))
	case j%2 == 1:
		return float64(j)
	default:
		return float64(k + j - 1)
	}
}

// BenchmarkIncrementalBin measures one bin's life at the paper's density:
// 24 nine-sample traceroutes (216 samples) appended, then one settling
// read. ns/op is per sample. Successive bins cycle through 61 distinct
// sample sets so the branch predictor cannot learn one, and the bin's
// storage is reused across bins, so steady state is allocation-free.
func BenchmarkIncrementalBin(b *testing.B) {
	const groups, perGroup, sets = 24, 9, 61
	const perBin = groups * perGroup
	rng := rand.New(rand.NewSource(1))
	pool := make([]float64, perBin*sets)
	for i := range pool {
		pool[i] = math.Round(rng.ExpFloat64()*3e3) / 1e3
	}
	var bin IncrementalBin
	b.ReportAllocs()
	b.ResetTimer()
	for i, set := 0, 0; i < b.N; i, set = i+perBin, (set+1)%sets {
		vs := pool[set*perBin : (set+1)*perBin]
		bin.vals, bin.groups = bin.vals[:0], 0
		for g := 0; g < groups; g++ {
			bin.AddGroup(vs[g*perGroup : (g+1)*perGroup])
		}
		if _, ok := bin.Median(); !ok {
			b.Fatal("no median")
		}
	}
}

package engine

// Engine state serialization: Snapshot writes the engine's complete
// resident state — configuration, watermark, monotonic counters, and
// every (AS, probe, bin) two-heap median cell — as a wire StreamSnapshot
// stream, and Restore rebuilds an equivalent engine from one. The
// equivalence is behavioral, pinned by TestSnapshotRestoreContinue:
// restore-then-continue produces bit-identical signals, stats, and
// eviction behavior to never having stopped.

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/last-mile-congestion/lastmile/internal/timeseries"
	"github.com/last-mile-congestion/lastmile/internal/wire"
)

// ErrSnapshotOptions marks a Restore or Merge whose engine options
// disagree with the state being loaded on a semantic field (bin width,
// traceroute threshold, window, lateness). Loading state across
// differing bin semantics would silently change verdicts, so it is
// refused instead.
var ErrSnapshotOptions = errors.New("engine: snapshot options mismatch")

// Snapshot serializes the engine's state to w as a wire StreamSnapshot
// stream: one meta frame, then one frame per resident (AS, probe)
// window, ASes in ascending ASN order and probes in ascending ID order,
// so equal states produce equal bytes. Each AS's shard is locked only
// while that AS is encoded; for a frame-consistent snapshot the engine
// must be quiescent (no concurrent Observe), which is how the stream
// monitor drives it — checkpoints run from the single feed loop.
func (e *Engine) Snapshot(w io.Writer) error {
	sw := wire.NewSnapshotWriter(w)
	st := e.Stats()
	meta := wire.SnapshotMeta{
		BinWidth:       e.opts.BinWidth,
		MinTraceroutes: e.opts.MinTraceroutes,
		Window:         e.opts.Window,
		MaxLateness:    e.opts.MaxLateness,
		Ingested:       st.Ingested,
		Dropped:        st.Dropped,
		EvictedBins:    st.EvictedBins,
	}
	if n := e.newest.Load(); n != -1<<62 {
		meta.HasNewest = true
		meta.NewestNano = n
	}
	if err := sw.WriteMeta(&meta); err != nil {
		return err
	}
	// One reused probe frame: bin and heap storage reaches the largest
	// window once, then every probe encodes allocation-free.
	var p wire.SnapshotProbe
	var probeIDs []int
	var keys []int64
	for _, asn := range e.ASNs() {
		sh := e.shardOf(asn)
		sh.mu.Lock()
		aw := sh.ases[asn]
		if aw == nil {
			// Evicted between ASNs() and here; only possible on a
			// non-quiescent engine, and skipping is still a valid state.
			sh.mu.Unlock()
			continue
		}
		probeIDs = probeIDs[:0]
		for id := range aw.probes {
			probeIDs = append(probeIDs, id)
		}
		sort.Ints(probeIDs)
		for _, id := range probeIDs {
			pw := aw.probes[id]
			keys = keys[:0]
			for key := range pw.bins {
				keys = append(keys, key)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			p.ASN = asn
			p.ProbeID = id
			p.Bins = p.Bins[:0]
			for _, key := range keys {
				lo, hi, groups := pw.bins[key].Snapshot()
				p.Bins = append(p.Bins, wire.SnapshotBin{Key: key, Groups: groups, Lo: lo, Hi: hi})
			}
			if err := sw.WriteProbe(&p); err != nil {
				sh.mu.Unlock()
				return err
			}
		}
		sh.mu.Unlock()
	}
	return sw.Flush()
}

// Restore rebuilds an engine from a Snapshot stream. Semantic options
// (BinWidth, MinTraceroutes, Window, MaxLateness) left zero in opts
// adopt the snapshot's values; non-zero values must match the snapshot
// (ErrSnapshotOptions otherwise). Runtime options — Shards, Metrics —
// come from opts: a snapshot taken at one shard count restores at any
// other, because shard striping never affects results.
//
// The stream is fully re-validated on the way in (wire framing,
// canonical varints, two-heap invariants), so a truncated or corrupted
// snapshot fails with a typed wire error and never yields a partially
// trusted engine.
func Restore(r io.Reader, opts Options) (*Engine, error) {
	sc := wire.NewSnapshotScanner(r)
	meta, err := sc.Meta()
	if err != nil {
		return nil, err
	}
	if opts.BinWidth == 0 {
		opts.BinWidth = meta.BinWidth
	}
	if opts.MinTraceroutes == 0 {
		opts.MinTraceroutes = meta.MinTraceroutes
	}
	if opts.Window == 0 {
		opts.Window = meta.Window
	}
	if opts.MaxLateness == 0 {
		opts.MaxLateness = meta.MaxLateness
	}
	if opts.BinWidth != meta.BinWidth || opts.MinTraceroutes != meta.MinTraceroutes ||
		opts.Window != meta.Window || opts.MaxLateness != meta.MaxLateness {
		return nil, fmt.Errorf("%w: snapshot (bin=%v min=%d window=%v lateness=%v) vs options (bin=%v min=%d window=%v lateness=%v)",
			ErrSnapshotOptions,
			meta.BinWidth, meta.MinTraceroutes, meta.Window, meta.MaxLateness,
			opts.BinWidth, opts.MinTraceroutes, opts.Window, opts.MaxLateness)
	}
	e := New(opts)
	for sc.Scan() {
		p := sc.Probe()
		sh := e.shardOf(p.ASN)
		aw := sh.ases[p.ASN]
		if aw == nil {
			aw = &asWindow{probes: make(map[int]*probeWindow)}
			sh.ases[p.ASN] = aw
		}
		if aw.probes[p.ProbeID] != nil {
			return nil, fmt.Errorf("engine: snapshot repeats probe %d of %v: %w", p.ProbeID, p.ASN, wire.ErrBadFrame)
		}
		pw := &probeWindow{bins: make(map[int64]*timeseries.IncrementalBin, len(p.Bins))}
		aw.probes[p.ProbeID] = pw
		sh.probes++
		for i := range p.Bins {
			sb := &p.Bins[i]
			// The scanner reuses heap storage across frames; RestoreBin
			// copies it into storage the bin owns.
			bin, err := timeseries.RestoreBin(sb.Lo, sb.Hi, sb.Groups)
			if err != nil {
				// Unreachable through the wire decoder, which validates
				// heap state per frame; kept for defense in depth.
				return nil, fmt.Errorf("engine: probe %d of %v: %v: %w", p.ProbeID, p.ASN, err, wire.ErrBadFrame)
			}
			pw.bins[sb.Key] = bin
			sh.bins++
			sh.samples += int64(bin.Len())
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if meta.HasNewest {
		e.newest.Store(meta.NewestNano)
		if opts.Window > 0 {
			// The snapshotting engine swept each shard when the watermark
			// last crossed a bin boundary; starting the restored shards at
			// that same sweep mark keeps eviction cadence — and the
			// EvictedBins counter — aligned with an engine that never
			// stopped.
			swept := e.binKey(meta.NewestNano / int64(time.Second))
			for _, sh := range e.shards {
				sh.swept = swept
			}
		}
	}
	// Carry the monotonic counters across the restart so operator-visible
	// totals are continuous. Ingested lands on shard 0's series: per-shard
	// attribution is a live-balance diagnostic, not state worth splitting
	// a snapshot over.
	e.shards[0].ingested.Add(meta.Ingested)
	e.dropped.Add(meta.Dropped)
	e.evicted.Add(meta.EvictedBins)
	return e, nil
}

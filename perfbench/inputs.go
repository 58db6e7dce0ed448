package main

// Seeded inputs. Every input the benchmark feeds the program
// is derived from the workload seed through the Tokyo case-study world
// (internal/scenario) and the Atlas built-in measurement schedule
// (internal/atlas), so one seed always yields byte-identical files and
// the program itself only ever sees generated archives.
//
// One build writes, into a cache directory keyed by seed and size:
//
//	survey.wire        days [0, SurveyDays) of the whole fleet, anchor
//	                   included, time-ordered
//	probes.json        probe metadata (the anchor is flagged)
//	live-<target>.wire one ISP's probes, anchor excluded, over the
//	                   backlog and live days, time-ordered
//	checkpoint.state   a monitor checkpoint of days [0, SurveyDays)
//	                   under the live config
//	manifest.json      counts, time bounds and the reference verdict
//	                   rows; written last, so a directory without it is
//	                   incomplete
//
// The JSONL copies of the archives (*.jsonl) are written from the wire
// ones the first time a workload needs them.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	lastmile "github.com/last-mile-congestion/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/atlas"
	"github.com/last-mile-congestion/lastmile/internal/bgp"
	"github.com/last-mile-congestion/lastmile/internal/ioutil"
	"github.com/last-mile-congestion/lastmile/internal/scenario"
	"github.com/last-mile-congestion/lastmile/internal/stream"
	"github.com/last-mile-congestion/lastmile/internal/traceroute"
	"github.com/last-mile-congestion/lastmile/internal/wire"
)

// inputVersion changes whenever buildInputs' output changes, so stale
// cache entries are never reused.
const inputVersion = "v3"

// Size fixes how much simulated time the inputs cover.
type Size struct {
	// SurveyDays is the length of the survey archive and of the
	// checkpoint's data.
	SurveyDays int `json:"survey_days"`
	// CatchupDays of backlog follow the checkpoint; the daemon ingests
	// them in a closed loop.
	CatchupDays int `json:"catchup_days"`
	// LiveDays follow the backlog; the daemon receives them in an open
	// loop gated on its fake clock.
	LiveDays int `json:"live_days"`
}

// benchSize is the size every benchmark run uses.
var benchSize = Size{SurveyDays: 5, CatchupDays: 2, LiveDays: 4}

func (s Size) key() string {
	return fmt.Sprintf("d%d-c%d-l%d", s.SurveyDays, s.CatchupDays, s.LiveDays)
}

func (s Size) validate() error {
	if s.SurveyDays < 2 || s.CatchupDays < 1 || s.LiveDays < 1 ||
		time.Duration(s.CatchupDays)*24*time.Hour >= liveWindow {
		return fmt.Errorf("bad input size %+v", s)
	}
	return nil
}

// liveTarget is one monitored ISP of the live workload.
type liveTarget struct {
	Name string  `json:"name"`
	ASN  bgp.ASN `json:"asn"`
	// Records is the number of traceroutes in the target's live
	// archive; Backlog of them fall at or before Manifest.CatchupEnd.
	Records int `json:"records"`
	Backlog int `json:"backlog"`
}

// surveyFacts are what lmsurvey must report about the survey archive.
type surveyFacts struct {
	Total   int `json:"total"`
	Anchors int `json:"anchors"`
	Probes  int `json:"probes"`
	Groups  int `json:"groups"`
	// Start and End are the survey window lmsurvey derives.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
}

// Manifest describes one built input set.
type Manifest struct {
	Version string `json:"version"`
	Seed    uint64 `json:"seed"`
	Size    Size   `json:"size"`
	// Day0 is the first simulated instant; CatchupEnd is where the
	// backlog ends and the live phase starts.
	Day0       time.Time    `json:"day0"`
	CatchupEnd time.Time    `json:"catchup_end"`
	Survey     surveyFacts  `json:"survey"`
	Targets    []liveTarget `json:"targets"`
	// Reference holds the verdict rows an in-process core survey of
	// the attributed survey data produces.
	Reference []Row `json:"reference"`
}

// Inputs is a built input set on disk.
type Inputs struct {
	Dir string
	Manifest
}

// Path returns the path of a file of the input set.
func (in *Inputs) Path(name string) string { return filepath.Join(in.Dir, name) }

// SurveyArchive returns the survey archive in the given encoding.
func (in *Inputs) SurveyArchive(enc string) string { return in.Path("survey." + enc) }

// LiveArchive returns a target's live archive in the given encoding.
func (in *Inputs) LiveArchive(target, enc string) string {
	return in.Path("live-" + target + "." + enc)
}

// liveWindow is the live daemon's analysis window. The daemon writes
// the whole window to its checkpoint at every bin boundary, 10 times a
// wall second in the live phase, so the window is three days (a
// checkpoint of about 7 MB) rather than the paper's 15. It must exceed
// the backlog: in the closed-loop catch-up one target can run ahead of
// another by up to the whole backlog, and the engine drops what falls
// more than the window behind its watermark.
const liveWindow = 3 * 24 * time.Hour

// liveStreamOptions are the engine semantics of the live daemon; the
// checkpoint is built under the same options so it restores cleanly.
func liveStreamOptions() stream.Options {
	return stream.Options{
		Window:         liveWindow,
		BinWidth:       lastmile.DefaultBinWidth,
		MinTraceroutes: lastmile.DefaultMinTraceroutes,
		MaxLateness:    time.Hour,
	}
}

// cacheEntry is the directory name of an input set.
func cacheEntry(seed uint64, s Size) string {
	return fmt.Sprintf("tokyo-s%d-%s-%s", seed, s.key(), inputVersion)
}

// loadInputs opens a complete input set, or reports false.
func loadInputs(dir string) (*Inputs, bool) {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, false
	}
	in := &Inputs{Dir: dir}
	if err := json.Unmarshal(data, &in.Manifest); err != nil || in.Version != inputVersion {
		return nil, false
	}
	return in, true
}

// pruneCache removes all but the newest keep input sets other than
// current, so a long series of seeds does not fill the disk.
func pruneCache(cache, current string, keep int) error {
	entries, err := os.ReadDir(cache)
	if err != nil {
		return err
	}
	type aged struct {
		path string
		mod  time.Time
	}
	var old []aged
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "tokyo-") || e.Name() == current {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		old = append(old, aged{filepath.Join(cache, e.Name()), info.ModTime()})
	}
	sort.Slice(old, func(i, j int) bool { return old[i].mod.After(old[j].mod) })
	for i := keep; i < len(old); i++ {
		if err := os.RemoveAll(old[i].path); err != nil {
			return err
		}
	}
	return nil
}

// buildInputs writes the input set for (seed, size) into dir, which
// must not exist. It writes into a sibling temporary directory and
// renames it into place, so a crashed build never leaves a half set
// behind dir.
func buildInputs(dir string, seed uint64, size Size) (*Inputs, error) {
	if err := size.validate(); err != nil {
		return nil, err
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	in := &Inputs{Dir: tmp}
	if err := in.build(seed, size); err != nil {
		return nil, errors.Join(err, os.RemoveAll(tmp))
	}
	if err := os.Rename(tmp, dir); err != nil {
		return nil, err
	}
	in.Dir = dir
	return in, nil
}

// record is one generated traceroute: its wire payload in the shared
// buffer, its timestamp, and the generating probe's position in the
// fleet (the sort tie-breaker).
type record struct {
	ts    int64
	probe int
	off   int
	n     int
}

// corpus is every generated traceroute, encoded once as wire payloads.
type corpus struct {
	buf  []byte
	recs []record
}

func (c *corpus) payload(r record) []byte { return c.buf[r.off : r.off+r.n] }

// generate runs the Atlas schedule for every probe over [from, to) and
// orders the results by time (probe fleet order, then emission order,
// within a timestamp).
func generate(seed uint64, probes []*atlas.Probe, from, to time.Time) (*corpus, error) {
	eng := atlas.NewEngine(seed)
	c := &corpus{}
	for i, p := range probes {
		err := eng.Run(p, from, to, func(r *traceroute.Result) error {
			off := len(c.buf)
			c.buf = wire.AppendResult(c.buf, p.ASN, r)
			c.recs = append(c.recs, record{ts: r.Timestamp.UnixNano(), probe: i, off: off, n: len(c.buf) - off})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.SliceStable(c.recs, func(i, j int) bool {
		if c.recs[i].ts != c.recs[j].ts {
			return c.recs[i].ts < c.recs[j].ts
		}
		return c.recs[i].probe < c.recs[j].probe
	})
	return c, nil
}

// archive writes one wire result stream.
type archive struct {
	f  *os.File
	bw *bufio.Writer
	ww *wire.Writer
}

func createArchive(path string) (*archive, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	return &archive{f: f, bw: bw, ww: wire.NewWriter(bw, wire.StreamResults)}, nil
}

func (a *archive) write(asn bgp.ASN, r *traceroute.Result) error { return a.ww.WriteResult(asn, r) }

// finish flushes and closes the file.
func (a *archive) finish() error {
	return errors.Join(a.ww.Flush(), a.bw.Flush(), a.f.Close())
}

func (a *archive) close() error { return a.f.Close() }

// build generates everything into in.Dir.
func (in *Inputs) build(seed uint64, size Size) error {
	tk, err := scenario.BuildTokyo(seed, 10)
	if err != nil {
		return err
	}
	isps := []struct {
		name string
		isp  *scenario.TokyoISP
	}{{"isp-a", tk.ISPA}, {"isp-b", tk.ISPB}, {"isp-c", tk.ISPC}, {"isp-d", tk.ISPD}}
	var fleet []*atlas.Probe
	targetOf := map[int]int{} // fleet index -> target index
	for ti, isp := range isps {
		for _, p := range isp.isp.Probes {
			targetOf[len(fleet)] = ti
			fleet = append(fleet, p)
		}
	}
	anchor := len(fleet)
	fleet = append(fleet, tk.ISPDAnchor)

	day := 24 * time.Hour
	day0 := scenario.TokyoPeriod().Start
	surveyEnd := day0.Add(time.Duration(size.SurveyDays) * day)
	catchupEnd := surveyEnd.Add(time.Duration(size.CatchupDays) * day)
	liveEnd := catchupEnd.Add(time.Duration(size.LiveDays) * day)
	c, err := generate(seed, fleet, day0, liveEnd)
	if err != nil {
		return err
	}
	in.Manifest = Manifest{Version: inputVersion, Seed: seed, Size: size, Day0: day0, CatchupEnd: catchupEnd}

	if err := writeProbeMetadata(in.Path("probes.json"), fleet); err != nil {
		return err
	}

	survey, err := createArchive(in.SurveyArchive("wire"))
	if err != nil {
		return err
	}
	lives := make([]*archive, len(isps))
	for i, isp := range isps {
		if lives[i], err = createArchive(in.LiveArchive(isp.name, "wire")); err != nil {
			return errors.Join(err, survey.close(), closeAll(lives))
		}
		in.Targets = append(in.Targets, liveTarget{Name: isp.name, ASN: isp.isp.Network.ASN})
	}
	mon := stream.NewMonitor(liveStreamOptions())
	var attributed []lastmile.AttributedResult
	probesSeen := map[int]bool{}
	groups := map[bgp.ASN]bool{}
	var tMin, tMax time.Time
	var res traceroute.Result
	for _, r := range c.recs {
		asn, err := wire.DecodeResultInto(&res, c.payload(r))
		if err != nil {
			return errors.Join(err, survey.close(), closeAll(lives))
		}
		var werr error
		switch {
		case r.ts < surveyEnd.UnixNano():
			werr = survey.write(asn, &res)
			in.Survey.Total++
			if r.probe == anchor {
				in.Survey.Anchors++
				break
			}
			probesSeen[res.ProbeID] = true
			groups[asn] = true
			if tMin.IsZero() || res.Timestamp.Before(tMin) {
				tMin = res.Timestamp
			}
			if res.Timestamp.After(tMax) {
				tMax = res.Timestamp
			}
			attributed = append(attributed, lastmile.AttributedResult{ASN: asn, Result: res.Clone()})
			werr = errors.Join(werr, mon.Observe(asn, &res))
		case r.probe != anchor:
			ti := targetOf[r.probe]
			werr = lives[ti].write(asn, &res)
			in.Targets[ti].Records++
			if r.ts <= catchupEnd.UnixNano() {
				in.Targets[ti].Backlog++
			}
		}
		if werr != nil {
			return errors.Join(werr, survey.close(), closeAll(lives))
		}
	}
	if err := errors.Join(survey.finish(), finishAll(lives)); err != nil {
		return err
	}

	in.Survey.Probes, in.Survey.Groups = len(probesSeen), len(groups)
	in.Survey.Start = tMin.Truncate(lastmile.DefaultBinWidth)
	in.Survey.End = tMax.Add(lastmile.DefaultBinWidth).Truncate(lastmile.DefaultBinWidth)
	if in.Reference, err = referenceRows(attributed, in.Survey); err != nil {
		return err
	}
	if err := writeCheckpoint(in.Path("checkpoint.state"), mon); err != nil {
		return err
	}
	return writeJSONFile(in.Path("manifest.json"), in.Manifest)
}

func finishAll(as []*archive) error {
	var errs []error
	for _, a := range as {
		errs = append(errs, a.finish())
	}
	return errors.Join(errs...)
}

func closeAll(as []*archive) error {
	var errs []error
	for _, a := range as {
		if a != nil {
			errs = append(errs, a.close())
		}
	}
	return errors.Join(errs...)
}

// referenceRows runs the core survey in-process over the attributed
// survey data, with the options lmsurvey uses, and renders its rows.
func referenceRows(attributed []lastmile.AttributedResult, facts surveyFacts) ([]Row, error) {
	survey, skipped, err := lastmile.RunSurveySharded(facts.Start.Format("2006-01"), attributed, 1, lastmile.SurveyOptions{
		Start: facts.Start,
		End:   facts.End,
	})
	if err != nil {
		return nil, err
	}
	probes := map[lastmile.ASN]map[int]bool{}
	for _, a := range attributed {
		if probes[a.ASN] == nil {
			probes[a.ASN] = map[int]bool{}
		}
		probes[a.ASN][a.Result.ProbeID] = true
	}
	return surveyRows(survey, skipped, func(asn lastmile.ASN) int { return len(probes[asn]) }), nil
}

// writeProbeMetadata writes the fleet's Atlas probe-archive metadata.
func writeProbeMetadata(path string, fleet []*atlas.Probe) (err error) {
	infos := make([]atlas.ProbeInfo, 0, len(fleet))
	for _, p := range fleet {
		infos = append(infos, atlas.ProbeInfo{
			ID: p.ID, ASNv4: p.ASN, CountryCode: p.CC, City: p.City,
			IsAnchor: p.IsAnchor, Version: p.Version, Status: "Connected",
		})
	}
	registry, err := atlas.NewRegistry(infos)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer ioutil.CloseJoin(f, &err)
	return registry.WriteRegistry(f)
}

// writeCheckpoint writes the monitor's snapshot to path.
func writeCheckpoint(path string, m *stream.Monitor) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer ioutil.CloseJoin(f, &err)
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := m.Snapshot(bw); err != nil {
		return err
	}
	return bw.Flush()
}

func writeJSONFile(path string, v any) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer ioutil.CloseJoin(f, &err)
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// archives returns the base paths (without extension) of every archive
// of the input set.
func (in *Inputs) archives() []string {
	out := []string{in.Path("survey")}
	for _, t := range in.Targets {
		out = append(out, in.Path("live-"+t.Name))
	}
	return out
}

// ensureEncoding makes sure every archive exists in enc, writing the
// JSONL copies from the wire archives when they are missing. Each copy
// is written under a temporary name and renamed, so a partial one is
// never used.
func (in *Inputs) ensureEncoding(enc string) error {
	if enc == "wire" {
		return nil
	}
	if enc != "jsonl" {
		return fmt.Errorf("unknown encoding %q", enc)
	}
	for _, base := range in.archives() {
		dst := base + ".jsonl"
		if _, err := os.Stat(dst); err == nil {
			continue
		}
		if err := writeJSONL(dst+".tmp", base+".wire"); err != nil {
			return errors.Join(err, os.Remove(dst+".tmp"))
		}
		if err := os.Rename(dst+".tmp", dst); err != nil {
			return err
		}
	}
	return nil
}

// writeJSONL writes the results of a wire archive as Atlas JSONL.
func writeJSONL(dst, src string) (err error) {
	f, err := os.Create(dst)
	if err != nil {
		return err
	}
	defer ioutil.CloseJoin(f, &err)
	bw := bufio.NewWriterSize(f, 1<<20)
	jw := traceroute.NewWriter(bw)
	var werr error
	if err := scanArchive(src, -1, func(_ bgp.ASN, r *traceroute.Result) {
		if werr == nil {
			werr = jw.Write(r)
		}
	}); err != nil {
		return err
	}
	return errors.Join(werr, jw.Flush(), bw.Flush())
}

// copyFile copies src over dst.
func copyFile(dst, src string) (err error) {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer ioutil.CloseQuiet(in)
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	defer ioutil.CloseJoin(out, &err)
	_, err = io.Copy(out, in)
	return err
}

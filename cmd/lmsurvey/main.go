// Command lmsurvey runs the paper's last-mile congestion pipeline over a
// traceroute dataset: per-probe last-mile estimation, 30-minute median
// binning, population aggregation, and Welch-based classification.
//
// It reads newline-delimited RIPE Atlas traceroute JSON or the binary
// wire format (cmd/atlasgen -format binary), detecting the encoding
// automatically — either genuine Atlas API output or synthetic data —
// and groups probes by origin AS (probe metadata, then an optional RIB
// longest-prefix match, then the archive's own in-band attribution for
// wire input). It is a single streaming pass: each traceroute is
// decoded, attributed, estimated and observed into the shared
// incremental delay engine, and none is retained, so memory follows the
// engine's resident bins rather than the archive's size. Every AS is
// classified once the input ends.
//
// Usage:
//
//	atlasgen -isp A -days 8 | lmsurvey
//	lmsurvey -in traces.jsonl -rib rib.txt -csv signals/
//	lmsurvey -in traces.jsonl -workers 8 -shards 8
//	lmsurvey -in archive.lmw -split 8
//
// -workers fans the per-AS classification out (default GOMAXPROCS);
// -shards sets the engine lock stripes (default 1); -split K partitions
// the ASes across K independent engines merged before classification
// (engine.Merge). The report is byte-identical at any worker, shard, or
// split count.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	lastmile "github.com/last-mile-congestion/lastmile"
	"github.com/last-mile-congestion/lastmile/internal/ioutil"
	"github.com/last-mile-congestion/lastmile/internal/report"
)

// config is lmsurvey's command line.
type config struct {
	in, rib, probes, csvDir, metrics string
	workers, shards, split           int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.in, "in", "-", "traceroute archive, Atlas JSONL or binary wire (- for stdin)")
	flag.StringVar(&cfg.rib, "rib", "", "optional RIB file ('prefix origin' lines) for probe->AS mapping")
	flag.StringVar(&cfg.probes, "probes", "", "optional probe metadata file (Atlas probe-archive JSON) for probe->AS mapping and anchor exclusion")
	flag.StringVar(&cfg.csvDir, "csv", "", "optional directory for per-AS signal CSV dumps")
	flag.IntVar(&cfg.workers, "workers", 0, "worker goroutines for the per-AS classification (0 = GOMAXPROCS, 1 = serial; output is identical at any count)")
	flag.IntVar(&cfg.shards, "shards", 0, "engine lock stripes (0 = 1 stripe; output is identical at any count)")
	flag.IntVar(&cfg.split, "split", 1, "map-reduce replay: partition the ASes across this many independent engines and merge (output is identical at any count)")
	flag.StringVar(&cfg.metrics, "metrics", "", "write an end-of-run telemetry snapshot (Prometheus text) to this file (- for stdout)")
	flag.Parse()
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "lmsurvey:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer, cfg config) error {
	var r io.Reader = os.Stdin
	if cfg.in != "-" {
		f, err := os.Open(cfg.in)
		if err != nil {
			return err
		}
		defer ioutil.CloseQuiet(f)
		r = f
	}
	var rib *lastmile.RIB
	if cfg.rib != "" {
		f, err := os.Open(cfg.rib)
		if err != nil {
			return err
		}
		parsed, err := lastmile.ParseRIB(f)
		ioutil.CloseQuiet(f)
		if err != nil {
			return err
		}
		rib = parsed
	}
	var registry *lastmile.ProbeRegistry
	if cfg.probes != "" {
		f, err := os.Open(cfg.probes)
		if err != nil {
			return err
		}
		parsed, err := lastmile.ParseProbeRegistry(f)
		ioutil.CloseQuiet(f)
		if err != nil {
			return err
		}
		registry = parsed
	}

	// One pass: resolve each probe's origin AS once (probe metadata,
	// when given, drives AS attribution and the §2 anchor exclusion; a
	// RIB longest-prefix match is the fallback) and feed every
	// traceroute straight from the scanner's reused storage.
	reg := lastmile.DefaultMetrics()
	feed := lastmile.NewSurveyFeed(cfg.split, lastmile.SurveyOptions{
		Workers: cfg.workers,
		Shards:  cfg.shards,
		Metrics: reg,
	})
	probeASN := map[int]lastmile.ASN{}
	asProbes := map[lastmile.ASN]int{}
	sc := lastmile.NewResultScanner(r)
	total, anchorsSkipped := 0, 0
	for sc.Scan() {
		res := sc.Result()
		total++
		var meta *lastmile.ProbeInfo
		if registry != nil {
			if info, ok := registry.ByID(res.ProbeID); ok {
				if info.IsAnchor {
					anchorsSkipped++
					continue
				}
				meta = info
			}
		}
		asn, seen := probeASN[res.ProbeID]
		if !seen {
			switch {
			case meta != nil && meta.ASNv4 != 0:
				asn = meta.ASNv4
			case rib != nil && res.FromAddr.IsValid():
				if origin, err := rib.OriginOf(res.FromAddr); err == nil {
					asn = origin
				}
			case sc.ASN() != 0:
				// Binary wire archives carry the origin AS in-band;
				// explicit -probes / -rib attribution takes precedence.
				asn = sc.ASN()
			}
			probeASN[res.ProbeID] = asn
			asProbes[asn]++
		}
		feed.Add(asn, res)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if total == 0 {
		return fmt.Errorf("no traceroutes in input")
	}
	start, end, _ := feed.Bounds()

	fmt.Fprintf(stdout, "lmsurvey: %d traceroutes, %d probes, %d AS group(s), %s .. %s",
		total, len(probeASN), len(asProbes), start.Format(time.RFC3339), end.Format(time.RFC3339))
	if anchorsSkipped > 0 {
		fmt.Fprintf(stdout, " (%d anchor traceroutes excluded)", anchorsSkipped)
	}
	fmt.Fprint(stdout, "\n\n")

	survey, skipped, err := feed.Finish(start.Format("2006-01"))
	if err != nil {
		return err
	}
	if cfg.metrics != "" {
		defer func() {
			if derr := reg.DumpFile(cfg.metrics); derr != nil {
				fmt.Fprintln(os.Stderr, "lmsurvey: metrics dump:", derr)
			}
		}()
	}
	skipReason := map[lastmile.ASN]error{}
	for _, s := range skipped {
		skipReason[s.ASN] = s.Reason
	}

	// One row per input AS in ASN order: classified ASes with their
	// verdicts, skipped ASes with their reasons.
	asns := make([]lastmile.ASN, 0, survey.Len()+len(skipped))
	asns = append(asns, survey.ASNs()...)
	for _, s := range skipped {
		asns = append(asns, s.ASN)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })

	tb := report.NewTable("AS", "probes", "class", "daily amp (ms)", "peak freq (c/h)", "signal")
	for _, asn := range asns {
		res := survey.Results[asn]
		if res == nil {
			reason := skipReason[asn]
			label := fmt.Sprintf("(unclassifiable: %v)", reason)
			if errors.Is(reason, lastmile.ErrNoUsableData) {
				label = "(no usable data)"
			}
			tb.AddRowf(asn.String(), asProbes[asn], label, "-", "-", "")
			continue
		}
		tb.AddRowf(asn.String(), res.Probes, res.Class.String(),
			fmt.Sprintf("%.2f", res.DailyAmplitude),
			fmt.Sprintf("%.3f", res.Peak.Freq),
			report.Sparkline(report.Downsample(res.Signal.Values, 48), 0))
		if cfg.csvDir != "" {
			if err := dumpCSV(cfg.csvDir, asn, res.Signal); err != nil {
				return err
			}
		}
	}
	return tb.Render(stdout)
}

func dumpCSV(dir string, asn lastmile.ASN, signal *lastmile.Series) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s.csv", asn)))
	if err != nil {
		return err
	}
	defer ioutil.CloseJoin(f, &err)
	return report.WriteSeriesCSV(f, "agg_queuing_delay_ms", signal)
}

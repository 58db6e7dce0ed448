package traceroute

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/netip"
	"time"

	lmioutil "github.com/last-mile-congestion/lastmile/internal/ioutil"
)

// atlasResult mirrors the RIPE Atlas traceroute result schema (firmware
// 4460+). Only the fields the pipeline needs are mapped; unknown fields
// are ignored on decode.
type atlasResult struct {
	Fw        int        `json:"fw"`
	AF        int        `json:"af"`
	PrbID     int        `json:"prb_id"`
	MsmID     int        `json:"msm_id"`
	Timestamp int64      `json:"timestamp"`
	SrcAddr   string     `json:"src_addr,omitempty"`
	From      string     `json:"from,omitempty"`
	DstAddr   string     `json:"dst_addr,omitempty"`
	Proto     string     `json:"proto,omitempty"`
	Result    []atlasHop `json:"result"`
}

type atlasHop struct {
	Hop    int          `json:"hop"`
	Result []atlasReply `json:"result"`
}

// atlasReply is one probe reply: either {"x": "*"} for a timeout or
// {"from": ..., "rtt": ..., "ttl": ...} for an answer. Error replies
// ({"err": ...}) are preserved as timeouts on decode.
type atlasReply struct {
	X    string   `json:"x,omitempty"`
	Err  string   `json:"err,omitempty"`
	From string   `json:"from,omitempty"`
	RTT  *float64 `json:"rtt,omitempty"`
	TTL  int      `json:"ttl,omitempty"`
}

// MarshalAtlas encodes r in the RIPE Atlas result JSON format.
func MarshalAtlas(r *Result) ([]byte, error) {
	ar := atlasResult{
		Fw:        5020,
		AF:        r.AF,
		PrbID:     r.ProbeID,
		MsmID:     r.MsmID,
		Timestamp: r.Timestamp.Unix(),
		Proto:     r.Proto,
	}
	if r.SrcAddr.IsValid() {
		ar.SrcAddr = r.SrcAddr.String()
	}
	if r.FromAddr.IsValid() {
		ar.From = r.FromAddr.String()
	}
	if r.DstAddr.IsValid() {
		ar.DstAddr = r.DstAddr.String()
	}
	for _, h := range r.Hops {
		ah := atlasHop{Hop: h.Hop}
		for _, rep := range h.Replies {
			if rep.Timeout || !rep.From.IsValid() {
				ah.Result = append(ah.Result, atlasReply{X: "*"})
				continue
			}
			rtt := rep.RTT
			ah.Result = append(ah.Result, atlasReply{
				From: rep.From.String(),
				RTT:  &rtt,
				TTL:  rep.TTL,
			})
		}
		ar.Result = append(ar.Result, ah)
	}
	return json.Marshal(ar)
}

// ParseAtlas decodes one RIPE Atlas traceroute result.
func ParseAtlas(data []byte) (*Result, error) {
	var ar atlasResult
	if err := json.Unmarshal(data, &ar); err != nil {
		return nil, fmt.Errorf("traceroute: %w", err)
	}
	return fromAtlas(&ar)
}

func fromAtlas(ar *atlasResult) (*Result, error) {
	r := &Result{
		ProbeID:   ar.PrbID,
		MsmID:     ar.MsmID,
		Timestamp: time.Unix(ar.Timestamp, 0).UTC(),
		AF:        ar.AF,
		Proto:     ar.Proto,
	}
	var err error
	parse := func(s string) (netip.Addr, error) {
		if s == "" {
			return netip.Addr{}, nil
		}
		a, perr := netip.ParseAddr(s)
		if perr != nil {
			return netip.Addr{}, perr
		}
		return a.Unmap(), nil
	}
	if r.SrcAddr, err = parse(ar.SrcAddr); err != nil {
		return nil, fmt.Errorf("traceroute: src_addr: %w", err)
	}
	if r.FromAddr, err = parse(ar.From); err != nil {
		return nil, fmt.Errorf("traceroute: from: %w", err)
	}
	if r.DstAddr, err = parse(ar.DstAddr); err != nil {
		return nil, fmt.Errorf("traceroute: dst_addr: %w", err)
	}
	for _, ah := range ar.Result {
		h := HopResult{Hop: ah.Hop}
		for _, rep := range ah.Result {
			if rep.X != "" || rep.Err != "" || rep.From == "" || rep.RTT == nil {
				h.Replies = append(h.Replies, Reply{Timeout: true, RTT: math.NaN()})
				continue
			}
			from, perr := netip.ParseAddr(rep.From)
			if perr != nil {
				return nil, fmt.Errorf("traceroute: hop %d: bad reply address %q", ah.Hop, rep.From)
			}
			h.Replies = append(h.Replies, Reply{
				From: from.Unmap(),
				RTT:  *rep.RTT,
				TTL:  rep.TTL,
			})
		}
		r.Hops = append(r.Hops, h)
	}
	return r, nil
}

// Writer streams results as newline-delimited Atlas JSON.
type Writer struct {
	w *bufio.Writer
}

// NewWriter wraps w for JSONL output.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write appends one result as a JSON line.
func (tw *Writer) Write(r *Result) error {
	data, err := MarshalAtlas(r)
	if err != nil {
		return err
	}
	if _, err := tw.w.Write(data); err != nil {
		return err
	}
	return tw.w.WriteByte('\n')
}

// Flush flushes buffered output. Call it before closing the underlying
// writer.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Scanner streams results from newline-delimited Atlas JSON. It owns
// one Result that every Scan decodes into, so steady-state scanning
// allocates nothing per line; see Result for the reuse contract.
type Scanner struct {
	sc   *bufio.Scanner
	res  Result
	err  error
	line int
}

// NewScanner wraps r for JSONL input, transparently decompressing
// gzip-compressed streams (Atlas dumps usually ship as .gz). Lines up to
// 4 MiB are accepted.
func NewScanner(r io.Reader) *Scanner {
	rd, err := lmioutil.MaybeGzip(r)
	if err != nil {
		// A broken gzip header surfaces as the scanner's first error.
		s := &Scanner{sc: bufio.NewScanner(r)}
		s.err = fmt.Errorf("traceroute: %w", err)
		return s
	}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	return &Scanner{sc: sc}
}

// Scan advances to the next result, skipping blank lines. It returns
// false at end of input or on the first error; check Err. Each Scan
// overwrites the Result returned by Result.
//
//lmvet:hotpath
func (s *Scanner) Scan() bool {
	if s.err != nil {
		return false
	}
	for s.sc.Scan() {
		s.line++
		line := s.sc.Bytes()
		blank := true
		for _, b := range line {
			if b != ' ' && b != '\t' && b != '\r' {
				blank = false
				break
			}
		}
		if blank {
			continue
		}
		if err := ParseAtlasInto(&s.res, line); err != nil {
			s.err = fmt.Errorf("line %d: %w", s.line, err) //lmvet:ignore allocguard terminal error path: the scan is over
			return false
		}
		return true
	}
	if err := s.sc.Err(); err != nil {
		// The line the scanner failed in: an oversize line never
		// reaches the counter above.
		s.err = fmt.Errorf("line %d: traceroute: %w", s.line+1, err) //lmvet:ignore allocguard terminal error path: the scan is over
	}
	return false
}

// Result returns the result decoded by the last successful Scan. The
// pointer and everything it references are valid until the next Scan
// call, which reuses the same storage; callers that retain a result
// across Scans must Clone it (or CopyFrom into their own Result).
func (s *Scanner) Result() *Result { return &s.res }

// Err returns the first error encountered, or nil at clean end of input.
func (s *Scanner) Err() error { return s.err }

package traceroute

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"math"
	"net/netip"
	"strings"
	"testing"
	"time"
)

func sampleResult() *Result {
	return &Result{
		ProbeID:   1001,
		MsmID:     5010,
		Timestamp: time.Date(2019, 9, 19, 12, 0, 0, 0, time.UTC),
		AF:        4,
		SrcAddr:   netip.MustParseAddr("192.168.1.5"),
		FromAddr:  netip.MustParseAddr("203.0.113.7"),
		DstAddr:   netip.MustParseAddr("193.0.14.129"),
		Proto:     "ICMP",
		Hops: []HopResult{
			{Hop: 1, Replies: []Reply{
				{From: netip.MustParseAddr("192.168.1.1"), RTT: 0.52, TTL: 64},
				{From: netip.MustParseAddr("192.168.1.1"), RTT: 0.48, TTL: 64},
				{From: netip.MustParseAddr("192.168.1.1"), RTT: 0.61, TTL: 64},
			}},
			{Hop: 2, Replies: []Reply{
				{From: netip.MustParseAddr("203.0.113.1"), RTT: 2.1, TTL: 254},
				{Timeout: true, RTT: math.NaN()},
				{From: netip.MustParseAddr("203.0.113.1"), RTT: 2.4, TTL: 254},
			}},
			{Hop: 3, Replies: []Reply{
				{From: netip.MustParseAddr("193.0.14.129"), RTT: 8.9, TTL: 55},
			}},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := sampleResult().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	r := sampleResult()
	r.AF = 5
	if err := r.Validate(); err == nil {
		t.Fatal("want error for bad AF")
	}

	r = sampleResult()
	r.Timestamp = time.Time{}
	if err := r.Validate(); err == nil {
		t.Fatal("want error for zero timestamp")
	}

	r = sampleResult()
	r.Hops[1].Hop = 1 // duplicate TTL
	if err := r.Validate(); err == nil {
		t.Fatal("want error for out-of-order hops")
	}

	r = sampleResult()
	r.Hops[0].Replies = append(r.Hops[0].Replies, Reply{}, Reply{})
	if err := r.Validate(); err == nil {
		t.Fatal("want error for >3 replies")
	}
}

func TestReachedDst(t *testing.T) {
	r := sampleResult()
	if !r.ReachedDst() {
		t.Fatal("sample reaches its destination")
	}
	r.Hops = r.Hops[:2]
	if r.ReachedDst() {
		t.Fatal("truncated trace does not reach destination")
	}
}

func TestRTTs(t *testing.T) {
	r := sampleResult()
	rtts := r.RTTs(1)
	if len(rtts) != 2 {
		t.Fatalf("rtts = %v, want timeout skipped", rtts)
	}
	if r.RTTs(-1) != nil || r.RTTs(10) != nil {
		t.Fatal("out-of-range hop should return nil")
	}
}

func TestAtlasRoundTrip(t *testing.T) {
	orig := sampleResult()
	data, err := MarshalAtlas(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseAtlas(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ProbeID != orig.ProbeID || got.MsmID != orig.MsmID || got.AF != orig.AF {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !got.Timestamp.Equal(orig.Timestamp) {
		t.Fatalf("timestamp = %v, want %v", got.Timestamp, orig.Timestamp)
	}
	if got.SrcAddr != orig.SrcAddr || got.FromAddr != orig.FromAddr || got.DstAddr != orig.DstAddr {
		t.Fatal("address mismatch")
	}
	if len(got.Hops) != len(orig.Hops) {
		t.Fatalf("hops = %d, want %d", len(got.Hops), len(orig.Hops))
	}
	if !got.Hops[1].Replies[1].Timeout {
		t.Fatal("timeout reply lost in round trip")
	}
	if got.Hops[0].Replies[0].RTT != 0.52 {
		t.Fatalf("rtt = %v", got.Hops[0].Replies[0].RTT)
	}
	if got.Hops[0].Replies[0].TTL != 64 {
		t.Fatalf("ttl = %d", got.Hops[0].Replies[0].TTL)
	}
}

func TestParseRealAtlasShape(t *testing.T) {
	// A result shaped like genuine Atlas API output, including fields we
	// ignore and an error reply.
	raw := `{
	  "fw": 4790, "af": 4, "prb_id": 6021, "msm_id": 5005,
	  "timestamp": 1568894400, "lts": 22,
	  "src_addr": "192.168.178.30", "from": "93.192.0.10",
	  "dst_addr": "192.33.4.12", "dst_name": "c.root-servers.net",
	  "proto": "ICMP", "size": 48, "paris_id": 9,
	  "result": [
	    {"hop": 1, "result": [
	      {"from": "192.168.178.1", "rtt": 0.72, "size": 28, "ttl": 64},
	      {"from": "192.168.178.1", "rtt": 0.59, "size": 28, "ttl": 64},
	      {"from": "192.168.178.1", "rtt": 0.57, "size": 28, "ttl": 64}]},
	    {"hop": 2, "result": [
	      {"x": "*"},
	      {"from": "87.186.224.94", "rtt": 11.5, "size": 28, "ttl": 253},
	      {"err": "N", "from": "87.186.224.94", "rtt": 12.0}]},
	    {"hop": 255, "result": [{"x": "*"}, {"x": "*"}, {"x": "*"}]}
	  ]
	}`
	r, err := ParseAtlas([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if r.ProbeID != 6021 {
		t.Fatalf("probe = %d", r.ProbeID)
	}
	if r.Timestamp.Unix() != 1568894400 {
		t.Fatalf("timestamp = %v", r.Timestamp)
	}
	if len(r.Hops) != 3 {
		t.Fatalf("hops = %d", len(r.Hops))
	}
	// The err reply must be treated as unusable.
	if !r.Hops[1].Replies[2].Timeout {
		t.Fatal("err reply should be a timeout")
	}
	if got := r.RTTs(1); len(got) != 1 || got[0] != 11.5 {
		t.Fatalf("hop 2 rtts = %v", got)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseAtlasBadJSON(t *testing.T) {
	if _, err := ParseAtlas([]byte("{nope")); err == nil {
		t.Fatal("want error")
	}
	if _, err := ParseAtlas([]byte(`{"src_addr": "garbage"}`)); err == nil {
		t.Fatal("want error for bad address")
	}
	if _, err := ParseAtlas([]byte(`{"result":[{"hop":1,"result":[{"from":"bad","rtt":1}]}]}`)); err == nil {
		t.Fatal("want error for bad reply address")
	}
}

func TestWriterScannerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 5; i++ {
		r := sampleResult()
		r.ProbeID = 1000 + i
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := NewScanner(&buf)
	count := 0
	for sc.Scan() {
		if sc.Result().ProbeID != 1000+count {
			t.Fatalf("probe = %d at %d", sc.Result().ProbeID, count)
		}
		count++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("scanned %d, want 5", count)
	}
}

func TestScannerSkipsBlankLines(t *testing.T) {
	data, _ := MarshalAtlas(sampleResult())
	input := "\n" + string(data) + "\n   \n" + string(data) + "\n"
	sc := NewScanner(strings.NewReader(input))
	count := 0
	for sc.Scan() {
		count++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("scanned %d, want 2", count)
	}
}

func TestScannerReportsLineOfError(t *testing.T) {
	data, _ := MarshalAtlas(sampleResult())
	input := string(data) + "\n{broken\n"
	sc := NewScanner(strings.NewReader(input))
	if !sc.Scan() {
		t.Fatal("first line should parse")
	}
	if sc.Scan() {
		t.Fatal("second line should fail")
	}
	if sc.Err() == nil || !strings.Contains(sc.Err().Error(), "line 2") {
		t.Fatalf("err = %v, want line number", sc.Err())
	}
	// After an error, Scan keeps returning false.
	if sc.Scan() {
		t.Fatal("Scan after error should return false")
	}
}

// TestScannerLocatesOversizeLine pins that a line over the scanner's
// 4 MiB limit fails with its line number, like a parse error, while the
// cause stays matchable.
func TestScannerLocatesOversizeLine(t *testing.T) {
	data, _ := MarshalAtlas(sampleResult())
	input := string(data) + "\n\n" + strings.Repeat(" ", 5<<20) + string(data) + "\n"
	sc := NewScanner(strings.NewReader(input))
	if !sc.Scan() {
		t.Fatalf("first line should parse: %v", sc.Err())
	}
	if sc.Scan() {
		t.Fatal("oversize line should fail")
	}
	err := sc.Err()
	if err == nil || !strings.HasPrefix(err.Error(), "line 3: traceroute: ") {
		t.Fatalf("err = %v, want prefix %q", err, "line 3: traceroute: ")
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("err = %v, want errors.Is bufio.ErrTooLong", err)
	}
}

func TestMarshalOmitsInvalidAddrs(t *testing.T) {
	r := sampleResult()
	r.SrcAddr = netip.Addr{}
	data, err := MarshalAtlas(r)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("src_addr")) {
		t.Fatal("invalid src_addr should be omitted")
	}
	back, err := ParseAtlas(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.SrcAddr.IsValid() {
		t.Fatal("src_addr should stay invalid")
	}
}

func BenchmarkParseAtlas(b *testing.B) {
	data, err := MarshalAtlas(sampleResult())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseAtlas(data); err != nil {
			b.Fatal(err)
		}
	}
}

func TestScannerReadsGzip(t *testing.T) {
	var plain bytes.Buffer
	w := NewWriter(&plain)
	for i := 0; i < 3; i++ {
		r := sampleResult()
		r.ProbeID = 500 + i
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	if _, err := zw.Write(plain.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	sc := NewScanner(&zipped)
	count := 0
	for sc.Scan() {
		if sc.Result().ProbeID != 500+count {
			t.Fatalf("probe = %d", sc.Result().ProbeID)
		}
		count++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("scanned %d, want 3", count)
	}
}

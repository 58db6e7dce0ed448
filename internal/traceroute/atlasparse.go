package traceroute

// A hand-rolled, pooled streaming tokenizer for the RIPE Atlas
// traceroute result JSON — the decode half of the zero-allocation ingest
// path. ParseAtlasInto replaces encoding/json on the hot path: it
// decodes one result into caller-owned storage, reusing the Result's hop
// and reply slices, an internal unescape scratch buffer, and interned
// protocol strings, so steady-state decoding of a stream amortises to
// zero allocations per result (the same EstimateInto/sync.Pool
// discipline the engine hot path uses, enforced by allocguard through
// the //lmvet:hotpath annotations and by the ingest benchmark gate).
//
// Semantics mirror the reference codec (ParseAtlas, which still runs
// encoding/json and serves as the differential-fuzz oracle): the same
// field set, encoding/json's case folding for key matching, JSON null as
// a field no-op (the *float64 rtt resets), invalid UTF-8 and unpaired
// surrogates replaced by U+FFFD inside strings, and identical
// timeout/error-reply folding. Where the two differ the hand parser is
// strictly *tighter* — it rejects a handful of inputs encoding/json
// accepts: duplicate occurrences of a mapped key (json merges them
// element-wise into already-decoded values; nothing produces that on
// purpose), zoned IPv6 addresses, values nested deeper than
// maxSkipDepth, and the literal -9223372036854775808 in an int field.
// FuzzParseAtlasJSON pins the containment: every input ParseAtlasInto
// accepts, ParseAtlas accepts with an identical Result.
//
// The kernel makes one pass per token. scanNumber validates the JSON
// number grammar while it accumulates up to 19 significant digits and a
// decimal exponent; integer fields read their value straight from that,
// floats convert it by Clinger's exact path (mantissa below 2^53,
// |exponent| ≤ 22) or, for the 17-digit shortest forms MarshalAtlas
// writes, by Eisel–Lemire (eisellemire.go), with strconv.ParseFloat on
// the literal as the fallback for truncated mantissas, clipped or
// out-of-table exponents and undecided halfway cases. readKey folds a
// key once, so field dispatch is exact comparison. readString runs on a
// byte-class table, and skipSpace returns after one compare when no
// whitespace follows. Replies remember the last "from" literal and the
// address it parsed to: Atlas repeats a responder across a hop's
// replies, and the parse is a pure function of the bytes, so the memo
// skips most address parses without changing any result.
//
// The code avoids closures and string conversions throughout — not
// style, contract: allocguard flags both classes on hot paths, so
// object/array walking is explicit loops over enterObject/nextMember
// rather than callbacks.

import (
	"bytes"
	"fmt"
	"math"
	"net/netip"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// SyntaxError is the typed error every malformed input maps onto: the
// byte offset where decoding stopped making sense and a static reason.
// Decoding never panics and never silently truncates.
type SyntaxError struct {
	// Off is the byte offset into the input.
	Off int
	// Msg is the static reason.
	Msg string
}

// Error renders the offset and reason.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("traceroute: atlas json: offset %d: %s", e.Off, e.Msg)
}

// maxSkipDepth bounds the nesting of unknown (skipped) values so hostile
// input cannot overflow the stack. Tighter than encoding/json's 10000,
// which keeps the parser strictly contained in what the oracle accepts.
const maxSkipDepth = 1000

// unixZero is the timestamp encoding/json's zero int64 maps onto —
// time.Unix(0, 0).UTC() — so a result without a timestamp field decodes
// identically through both codecs.
var unixZero = time.Unix(0, 0).UTC()

// Interned protocol strings: assigning these constants instead of
// converting the token bytes keeps the steady-state decode of real Atlas
// data allocation-free.
const (
	protoICMP = "ICMP"
	protoUDP  = "UDP"
	protoTCP  = "TCP"
)

// JSON literals, compared byte-wise by expectLiteral.
const (
	litNull  = "null"
	litTrue  = "true"
	litFalse = "false"
)

// atlasParser is the pooled per-parse state: the input cursor, reusable
// buffers (string unescaping, key folding, reply source-address
// retention) and the reply-address memo, which outlives a parse.
type atlasParser struct {
	data     []byte
	pos      int
	scratch  []byte     // unescape buffer, valid until the next readString
	keyBuf   []byte     // folded object key, valid until the next readKey
	fromBuf  []byte     // holds a reply's "from" string across its object
	memoFrom []byte     // the last reply address literal parsed ...
	memoAddr netip.Addr // ... and the address it parsed to
}

var atlasParserPool = sync.Pool{
	New: func() any {
		return &atlasParser{
			scratch:  make([]byte, 0, 64),
			keyBuf:   make([]byte, 0, 32),
			fromBuf:  make([]byte, 0, 64),
			memoFrom: make([]byte, 0, 64),
		}
	},
}

// ParseAtlasInto decodes one RIPE Atlas traceroute result into r,
// reusing r's hop and reply storage. On error r's contents are
// unspecified. The decoded Result owns no part of data; strings are
// interned or copied.
//
//lmvet:hotpath
func ParseAtlasInto(r *Result, data []byte) error {
	p := atlasParserPool.Get().(*atlasParser)
	p.data, p.pos = data, 0
	err := p.parseResult(r)
	p.data = nil
	atlasParserPool.Put(p)
	return err
}

// errAt builds the terminal parse error. Out of line so the hot decode
// loop pays for it only when a stream aborts.
func (p *atlasParser) errAt(msg string) error {
	return &SyntaxError{Off: p.pos, Msg: msg} //lmvet:ignore allocguard terminal error path: one allocation when a stream aborts on malformed input
}

// skipSpace advances past JSON whitespace. Every byte at or below ' '
// is either whitespace or invalid wherever a token may start, so one
// compare settles the common no-whitespace case.
func (p *atlasParser) skipSpace() {
	if p.pos < len(p.data) && p.data[p.pos] > ' ' {
		return
	}
	p.skipSpaceSlow()
}

// skipSpaceSlow is skipSpace's loop, out of line so skipSpace inlines.
func (p *atlasParser) skipSpaceSlow() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// parseResult decodes the top-level value: an object (the result) or the
// literal null (a zero result, as encoding/json decodes it).
func (p *atlasParser) parseResult(r *Result) error {
	hops := r.Hops[:0]
	*r = Result{Timestamp: unixZero, Hops: hops}

	p.skipSpace()
	if p.pos >= len(p.data) {
		return p.errAt("unexpected end of input")
	}
	switch p.data[p.pos] {
	case 'n':
		if err := p.expectLiteral(litNull); err != nil {
			return err
		}
	case '{':
		if err := p.parseResultObject(r); err != nil {
			return err
		}
	default:
		return p.errAt("expected a result object")
	}
	p.skipSpace()
	if p.pos != len(p.data) {
		return p.errAt("trailing data after result")
	}
	return nil
}

// Bit positions for duplicate-key detection, one seen-set per object.
const (
	seenFw = 1 << iota
	seenAF
	seenPrbID
	seenMsmID
	seenTimestamp
	seenSrcAddr
	seenFrom
	seenDstAddr
	seenProto
	seenResult
	seenHop
	seenX
	seenErrKey
	seenRTT
	seenTTL
)

// mark records a mapped key in an object's seen set, rejecting a second
// occurrence (see the package comment on why duplicates are rejected
// rather than merged).
func (p *atlasParser) mark(seen *uint32, bit uint32) error {
	if *seen&bit != 0 {
		return p.errAt("duplicate object key")
	}
	*seen |= bit
	return nil
}

// parseResultObject decodes the top-level object's fields.
func (p *atlasParser) parseResultObject(r *Result) error {
	more, err := p.enterObject()
	if err != nil {
		return err
	}
	var seen uint32
	for more {
		key, err := p.readKey()
		if err != nil {
			return err
		}
		switch {
		case bytesEqualString(key, "fw"):
			if err := p.mark(&seen, seenFw); err != nil {
				return err
			}
			// Decoded for validation (the reference schema maps it) but
			// not represented in Result.
			if _, _, err := p.parseIntField(); err != nil {
				return err
			}
		case bytesEqualString(key, "af"):
			if err := p.mark(&seen, seenAF); err != nil {
				return err
			}
			v, isNull, err := p.parseIntField()
			if err != nil {
				return err
			}
			if !isNull {
				r.AF = int(v)
			}
		case bytesEqualString(key, "prb_id"):
			if err := p.mark(&seen, seenPrbID); err != nil {
				return err
			}
			v, isNull, err := p.parseIntField()
			if err != nil {
				return err
			}
			if !isNull {
				r.ProbeID = int(v)
			}
		case bytesEqualString(key, "msm_id"):
			if err := p.mark(&seen, seenMsmID); err != nil {
				return err
			}
			v, isNull, err := p.parseIntField()
			if err != nil {
				return err
			}
			if !isNull {
				r.MsmID = int(v)
			}
		case bytesEqualString(key, "timestamp"):
			if err := p.mark(&seen, seenTimestamp); err != nil {
				return err
			}
			v, isNull, err := p.parseIntField()
			if err != nil {
				return err
			}
			if !isNull {
				r.Timestamp = time.Unix(v, 0).UTC()
			}
		case bytesEqualString(key, "src_addr"):
			if err := p.mark(&seen, seenSrcAddr); err != nil {
				return err
			}
			if err := p.parseAddrField(&r.SrcAddr); err != nil {
				return err
			}
		case bytesEqualString(key, "from"):
			if err := p.mark(&seen, seenFrom); err != nil {
				return err
			}
			if err := p.parseAddrField(&r.FromAddr); err != nil {
				return err
			}
		case bytesEqualString(key, "dst_addr"):
			if err := p.mark(&seen, seenDstAddr); err != nil {
				return err
			}
			if err := p.parseAddrField(&r.DstAddr); err != nil {
				return err
			}
		case bytesEqualString(key, "proto"):
			if err := p.mark(&seen, seenProto); err != nil {
				return err
			}
			s, isNull, err := p.parseStringField()
			if err != nil {
				return err
			}
			if !isNull {
				r.Proto = InternProto(s)
			}
		case bytesEqualString(key, "result"):
			if err := p.mark(&seen, seenResult); err != nil {
				return err
			}
			if err := p.parseHops(r); err != nil {
				return err
			}
		default:
			if err := p.skipValue(0); err != nil {
				return err
			}
		}
		if more, err = p.nextMember(); err != nil {
			return err
		}
	}
	return nil
}

// parseHops decodes the per-TTL hop array. A JSON null is a no-op, as
// null into a slice field is for encoding/json.
func (p *atlasParser) parseHops(r *Result) error {
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == 'n' {
		return p.expectLiteral(litNull)
	}
	r.Hops = r.Hops[:0]
	more, err := p.enterArray()
	if err != nil {
		return err
	}
	for more {
		if err := p.parseHop(r.AddHop()); err != nil {
			return err
		}
		if more, err = p.nextElem(); err != nil {
			return err
		}
	}
	return nil
}

// parseHop decodes one hop object (or null: a zero hop).
func (p *atlasParser) parseHop(h *HopResult) error {
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == 'n' {
		return p.expectLiteral(litNull)
	}
	more, err := p.enterObject()
	if err != nil {
		return err
	}
	var seen uint32
	for more {
		key, err := p.readKey()
		if err != nil {
			return err
		}
		switch {
		case bytesEqualString(key, "hop"):
			if err := p.mark(&seen, seenHop); err != nil {
				return err
			}
			v, isNull, err := p.parseIntField()
			if err != nil {
				return err
			}
			if !isNull {
				h.Hop = int(v)
			}
		case bytesEqualString(key, "result"):
			if err := p.mark(&seen, seenResult); err != nil {
				return err
			}
			if err := p.parseReplies(h); err != nil {
				return err
			}
		default:
			if err := p.skipValue(0); err != nil {
				return err
			}
		}
		if more, err = p.nextMember(); err != nil {
			return err
		}
	}
	return nil
}

// parseReplies decodes one hop's reply array. Null is a no-op like
// parseHops.
func (p *atlasParser) parseReplies(h *HopResult) error {
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == 'n' {
		return p.expectLiteral(litNull)
	}
	h.Replies = h.Replies[:0]
	more, err := p.enterArray()
	if err != nil {
		return err
	}
	for more {
		if err := p.parseReply(h.AddReply()); err != nil {
			return err
		}
		if more, err = p.nextElem(); err != nil {
			return err
		}
	}
	return nil
}

// parseReply decodes one reply object, folding it exactly as the
// reference codec does: a reply with a non-empty "x" or "err", an empty
// or missing "from", or no "rtt" is a timeout with NaN RTT; anything
// else must carry a parseable source address.
func (p *atlasParser) parseReply(rep *Reply) error {
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == 'n' {
		// null element: the zero reply folds to a timeout.
		if err := p.expectLiteral(litNull); err != nil {
			return err
		}
		rep.Timeout = true
		rep.RTT = math.NaN()
		return nil
	}
	more, err := p.enterObject()
	if err != nil {
		return err
	}
	var seen uint32
	var sawX, sawErr, rttSet bool
	var rtt float64
	var ttl int
	p.fromBuf = p.fromBuf[:0]
	for more {
		key, err := p.readKey()
		if err != nil {
			return err
		}
		switch {
		case bytesEqualString(key, "x"):
			if err := p.mark(&seen, seenX); err != nil {
				return err
			}
			s, isNull, err := p.parseStringField()
			if err != nil {
				return err
			}
			if !isNull {
				sawX = len(s) > 0
			}
		case bytesEqualString(key, "err"):
			if err := p.mark(&seen, seenErrKey); err != nil {
				return err
			}
			s, isNull, err := p.parseStringField()
			if err != nil {
				return err
			}
			if !isNull {
				sawErr = len(s) > 0
			}
		case bytesEqualString(key, "from"):
			if err := p.mark(&seen, seenFrom); err != nil {
				return err
			}
			s, isNull, err := p.parseStringField()
			if err != nil {
				return err
			}
			if !isNull {
				// Retained for after the object: whether it must parse
				// as an address depends on fields that may follow (rtt,
				// x, err).
				p.fromBuf = append(p.fromBuf[:0], s...)
			}
		case bytesEqualString(key, "rtt"):
			if err := p.mark(&seen, seenRTT); err != nil {
				return err
			}
			// *float64 in the reference schema: null is an explicit
			// absent value, not a no-op.
			p.skipSpace()
			if p.pos < len(p.data) && p.data[p.pos] == 'n' {
				if err := p.expectLiteral(litNull); err != nil {
					return err
				}
				rttSet = false
				break
			}
			v, err := p.parseFloatValue()
			if err != nil {
				return err
			}
			rtt, rttSet = v, true
		case bytesEqualString(key, "ttl"):
			if err := p.mark(&seen, seenTTL); err != nil {
				return err
			}
			v, isNull, err := p.parseIntField()
			if err != nil {
				return err
			}
			if !isNull {
				ttl = int(v)
			}
		default:
			if err := p.skipValue(0); err != nil {
				return err
			}
		}
		if more, err = p.nextMember(); err != nil {
			return err
		}
	}
	if sawX || sawErr || len(p.fromBuf) == 0 || !rttSet {
		rep.Timeout = true
		rep.RTT = math.NaN()
		return nil
	}
	if !bytes.Equal(p.fromBuf, p.memoFrom) {
		addr, ok := parseAddrBytes(p.fromBuf)
		if !ok {
			return p.errAt("bad reply address")
		}
		// The literal becomes the memo key by a buffer swap, not a copy.
		p.memoFrom, p.fromBuf = p.fromBuf, p.memoFrom
		p.memoAddr = addr
	}
	rep.From = p.memoAddr
	rep.RTT = rtt
	rep.TTL = ttl
	return nil
}

// parseAddrField decodes a string field into an address: the empty
// string is the invalid address (field absent), anything else must
// parse. JSON null leaves the reset (invalid) value.
func (p *atlasParser) parseAddrField(dst *netip.Addr) error {
	s, isNull, err := p.parseStringField()
	if err != nil || isNull {
		return err
	}
	if len(s) == 0 {
		*dst = netip.Addr{}
		return nil
	}
	addr, ok := parseAddrBytes(s)
	if !ok {
		return p.errAt("bad address")
	}
	*dst = addr
	return nil
}

// InternProto maps a protocol token onto its interned constant (ICMP,
// UDP, TCP, ""), so decoding real measurement data never allocates for
// the protocol string. Both decode paths — this parser and the binary
// wire codec — share it.
func InternProto(s []byte) string {
	switch {
	case len(s) == 0:
		return ""
	case bytesEqualString(s, protoICMP):
		return protoICMP
	case bytesEqualString(s, protoUDP):
		return protoUDP
	case bytesEqualString(s, protoTCP):
		return protoTCP
	}
	return string(s) //lmvet:ignore allocguard non-standard protocol token: allocates once per result carrying one, absent from real Atlas data
}

// bytesEqualString compares without converting (a string([]byte)
// conversion is an allocation site to allocguard, and the comparison
// must stay free).
func bytesEqualString(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		if b[i] != s[i] {
			return false
		}
	}
	return true
}

// enterObject consumes '{' and reports whether the object has members;
// an empty object is consumed entirely.
func (p *atlasParser) enterObject() (bool, error) {
	p.skipSpace()
	if p.pos >= len(p.data) || p.data[p.pos] != '{' {
		return false, p.errAt("expected an object")
	}
	p.pos++
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == '}' {
		p.pos++
		return false, nil
	}
	return true, nil
}

// nextMember advances past ',' (more members) or '}' (object done)
// after a member's value.
func (p *atlasParser) nextMember() (bool, error) {
	p.skipSpace()
	if p.pos >= len(p.data) {
		return false, p.errAt("unterminated object")
	}
	switch p.data[p.pos] {
	case ',':
		p.pos++
		return true, nil
	case '}':
		p.pos++
		return false, nil
	}
	return false, p.errAt("expected ',' or '}' in object")
}

// readKey reads `"key" :` and returns the decoded key folded onto the
// lowercase ASCII field names, so callers match it by exact comparison.
// The key is valid until the next readString or readKey (callers match
// it before decoding the value).
//
//lmvet:hotpath
func (p *atlasParser) readKey() ([]byte, error) {
	p.skipSpace()
	key, err := p.readString()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos >= len(p.data) || p.data[p.pos] != ':' {
		return nil, p.errAt("expected ':' after object key")
	}
	p.pos++
	for _, c := range key {
		if c-'A' < 26 || c >= utf8.RuneSelf {
			return p.foldKey(key), nil
		}
	}
	return key, nil
}

// foldKey applies encoding/json's key folding as far as it can reach a
// lowercase ASCII field name: ASCII letters lower, and the two Unicode
// runes whose simple-fold orbit lands on an ASCII letter (KELVIN SIGN K
// onto k, LATIN SMALL LETTER LONG S ſ onto s) become that letter. Any
// other non-ASCII rune yields nil, a key no field matches. The folded
// key lives in keyBuf.
func (p *atlasParser) foldKey(key []byte) []byte {
	buf := p.keyBuf[:0]
	for i := 0; i < len(key); {
		c := key[i]
		size := 1
		if c >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRune(key[i:])
			switch r {
			case '\u212A': // KELVIN SIGN
				c = 'k'
			case '\u017F': // LATIN SMALL LETTER LONG S
				c = 's'
			default:
				return nil
			}
		} else if c-'A' < 26 {
			c += 'a' - 'A'
		}
		buf = append(buf, c) //lmvet:ignore allocguard key buffer grows once to the longest folded key, then every decode reuses it
		i += size
	}
	p.keyBuf = buf
	return buf
}

// enterArray consumes '[' and reports whether the array has elements;
// an empty array is consumed entirely.
func (p *atlasParser) enterArray() (bool, error) {
	p.skipSpace()
	if p.pos >= len(p.data) || p.data[p.pos] != '[' {
		return false, p.errAt("expected an array")
	}
	p.pos++
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == ']' {
		p.pos++
		return false, nil
	}
	return true, nil
}

// nextElem advances past ',' (more elements) or ']' (array done) after
// an element.
func (p *atlasParser) nextElem() (bool, error) {
	p.skipSpace()
	if p.pos >= len(p.data) {
		return false, p.errAt("unterminated array")
	}
	switch p.data[p.pos] {
	case ',':
		p.pos++
		return true, nil
	case ']':
		p.pos++
		return false, nil
	}
	return false, p.errAt("expected ',' or ']' in array")
}

// expectLiteral consumes one of the fixed literals (null, true, false).
func (p *atlasParser) expectLiteral(lit string) error {
	if len(p.data)-p.pos < len(lit) {
		return p.errAt("bad literal")
	}
	for i := 0; i < len(lit); i++ {
		if p.data[p.pos+i] != lit[i] {
			return p.errAt("bad literal")
		}
	}
	p.pos += len(lit)
	return nil
}

// parseIntField decodes an integer-typed field: a JSON number with no
// fraction or exponent, within int64 range — exactly the literals
// encoding/json accepts for an int destination — or null (isNull, a
// no-op for the caller). The one divergence is math.MinInt64 itself,
// rejected rather than decoded (tighter; no Atlas field carries it).
func (p *atlasParser) parseIntField() (v int64, isNull bool, err error) {
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == 'n' {
		if err := p.expectLiteral(litNull); err != nil {
			return 0, false, err
		}
		return 0, true, nil
	}
	n, err := p.scanNumber()
	if err != nil {
		return 0, false, err
	}
	if !n.integer {
		return 0, false, p.errAt("number is not an integer")
	}
	// Integer literals have no leading zeros, so a mantissa holding all
	// the digits (exp 0) is the exact value.
	if n.exp != 0 || n.mant > math.MaxInt64 {
		return 0, false, p.errAt("integer overflow")
	}
	if n.neg {
		return -int64(n.mant), false, nil
	}
	return int64(n.mant), false, nil
}

// parseFloatValue decodes a JSON number into a float64, bit-identical to
// strconv.ParseFloat on the literal. Literals whose significant digits
// all fit the mantissa take Clinger's exact path or Eisel–Lemire; the
// rest (truncated mantissas, clipped or out-of-table exponents,
// undecided halfway cases) fall back to strconv.
func (p *atlasParser) parseFloatValue() (float64, error) {
	start := p.pos
	n, err := p.scanNumber()
	if err != nil {
		return 0, err
	}
	if !n.trunc {
		if f, ok := n.float(); ok {
			return f, nil
		}
	}
	f, perr := strconv.ParseFloat(string(p.data[start:p.pos]), 64) //lmvet:ignore allocguard slow-path conversion for literals beyond 19 significant digits or the Eisel–Lemire exponent range
	if perr != nil {
		return 0, p.errAt("number out of range")
	}
	return f, nil
}

// number is one scanned JSON number: mant·10^exp, where mant holds the
// first 19 significant decimal digits.
type number struct {
	mant    uint64
	exp     int
	neg     bool
	trunc   bool // a non-zero digit beyond the 19th, or an exponent digit past expCap, was dropped
	integer bool // no fraction and no exponent part
}

// float converts an untruncated number exactly: Clinger's path — a
// mantissa below 2^53 and a decimal exponent in [-22, 22] are correctly
// rounded by one float64 multiply or divide (zero keeps its sign) — or
// Eisel–Lemire. ok=false sends the caller to strconv.
func (n *number) float() (f float64, ok bool) {
	if n.mant < 1<<53 && n.exp >= -22 && n.exp <= 22 {
		f = float64(n.mant)
		if n.exp > 0 {
			f *= float64pow10[n.exp]
		} else if n.exp < 0 {
			f /= float64pow10[-n.exp]
		}
		if n.neg {
			f = -f
		}
		return f, true
	}
	return eiselLemire64(n.mant, n.exp, n.neg)
}

// float64pow10 holds the powers of ten exactly representable as float64.
var float64pow10 = [23]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// expCap caps the explicit exponent scanNumber accumulates, so the
// arithmetic cannot overflow on hostile input. A digit arriving once the
// cap is reached marks the number truncated: the digit-position offset
// of a long literal can cancel a clipped exponent back into the fast
// paths' range, so only strconv reads such a literal.
const expCap = 10000

// scanNumber consumes one JSON number token in a single pass, validating
// the grammar while it accumulates the significand and exponent.
//
//lmvet:hotpath
func (p *atlasParser) scanNumber() (n number, err error) {
	data := p.data
	i := p.pos
	if i < len(data) && data[i] == '-' {
		n.neg = true
		i++
	}
	if i >= len(data) || data[i]-'0' > 9 {
		p.pos = i
		return n, p.errAt("expected a number")
	}
	var mant uint64
	nd := 0 // significant digits in mant
	exp := 0
	if data[i] == '0' {
		i++
	} else {
		for ; i < len(data); i++ {
			d := data[i] - '0'
			if d > 9 {
				break
			}
			if nd < 19 {
				mant = mant*10 + uint64(d)
				nd++
			} else {
				n.trunc = n.trunc || d != 0
				exp++
			}
		}
	}
	n.integer = true
	if i < len(data) && data[i] == '.' {
		n.integer = false
		i++
		start := i
		for ; i < len(data); i++ {
			d := data[i] - '0'
			if d > 9 {
				break
			}
			if nd < 19 {
				mant = mant*10 + uint64(d)
				if mant != 0 {
					nd++ // leading zeros are not significant
				}
				exp--
			} else {
				n.trunc = n.trunc || d != 0
			}
		}
		if i == start {
			p.pos = i
			return n, p.errAt("bad number fraction")
		}
	}
	if i < len(data) && data[i]|0x20 == 'e' {
		n.integer = false
		i++
		eneg := false
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			eneg = data[i] == '-'
			i++
		}
		start := i
		ev := 0
		for ; i < len(data); i++ {
			d := data[i] - '0'
			if d > 9 {
				break
			}
			if ev < expCap {
				ev = ev*10 + int(d)
			} else {
				n.trunc = true
			}
		}
		if i == start {
			p.pos = i
			return n, p.errAt("bad number exponent")
		}
		if eneg {
			ev = -ev
		}
		exp += ev
	}
	p.pos = i
	n.mant, n.exp = mant, exp
	return n, nil
}

// parseStringField decodes a string-typed field or null. The returned
// bytes are valid until the next readString call.
func (p *atlasParser) parseStringField() (s []byte, isNull bool, err error) {
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == 'n' {
		if err := p.expectLiteral(litNull); err != nil {
			return nil, false, err
		}
		return nil, true, nil
	}
	s, err = p.readString()
	return s, false, err
}

// readString consumes one JSON string token and returns its decoded
// bytes: a zero-copy sub-slice of the input when the token is plain
// ASCII without escapes, the reusable scratch buffer otherwise (valid
// until the next readString). Escapes follow encoding/json, including
// replacing unpaired surrogates and invalid UTF-8 with U+FFFD.
//
//lmvet:hotpath
func (p *atlasParser) readString() ([]byte, error) {
	data := p.data
	i := p.pos
	if i >= len(data) || data[i] != '"' {
		return nil, p.errAt("expected a string")
	}
	i++
	start := i
	for i < len(data) && plainStringByte[data[i]] {
		i++
	}
	p.pos = i
	switch {
	case i >= len(data):
		return nil, p.errAt("unterminated string")
	case data[i] == '"':
		p.pos = i + 1
		return data[start:i], nil
	case data[i] < 0x20:
		return nil, p.errAt("raw control character in string")
	}
	return p.readStringSlow(start) // an escape or a non-ASCII byte
}

// plainStringByte is the byte-class table of readString's fast loop:
// true for the bytes a string carries verbatim, false for the closing
// quote, a backslash, control bytes and non-ASCII bytes.
var plainStringByte = plainStringBytes()

func plainStringBytes() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}

// readStringSlow finishes a string containing escapes or non-ASCII
// bytes, decoding into the scratch buffer.
func (p *atlasParser) readStringSlow(start int) ([]byte, error) {
	buf := append(p.scratch[:0], p.data[start:p.pos]...)
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		switch {
		case c == '"':
			p.pos++
			p.scratch = buf
			return buf, nil
		case c < 0x20:
			return nil, p.errAt("raw control character in string")
		case c == '\\':
			p.pos++
			if p.pos >= len(p.data) {
				return nil, p.errAt("unterminated escape")
			}
			e := p.data[p.pos]
			p.pos++
			switch e {
			case '"', '\\', '/':
				buf = append(buf, e) //lmvet:ignore allocguard scratch buffer grows once to the longest escaped string, then every decode reuses it
			case 'b':
				buf = append(buf, '\b') //lmvet:ignore allocguard scratch buffer grows once to the longest escaped string, then every decode reuses it
			case 'f':
				buf = append(buf, '\f') //lmvet:ignore allocguard scratch buffer grows once to the longest escaped string, then every decode reuses it
			case 'n':
				buf = append(buf, '\n') //lmvet:ignore allocguard scratch buffer grows once to the longest escaped string, then every decode reuses it
			case 'r':
				buf = append(buf, '\r') //lmvet:ignore allocguard scratch buffer grows once to the longest escaped string, then every decode reuses it
			case 't':
				buf = append(buf, '\t') //lmvet:ignore allocguard scratch buffer grows once to the longest escaped string, then every decode reuses it
			case 'u':
				r, err := p.readHex4()
				if err != nil {
					return nil, err
				}
				if utf16IsSurrogate(r) {
					// A high surrogate pairs with an immediately
					// following valid \u low surrogate; any other
					// surrogate becomes U+FFFD on its own, with the
					// looked-at escape left for the next iteration —
					// exactly encoding/json's unquote.
					paired := false
					if utf16IsHighSurrogate(r) && p.pos+1 < len(p.data) &&
						p.data[p.pos] == '\\' && p.data[p.pos+1] == 'u' {
						save := p.pos
						p.pos += 2
						r2, err2 := p.readHex4()
						if err2 == nil && utf16IsLowSurrogate(r2) {
							r = 0x10000 + (r-0xD800)<<10 + (r2 - 0xDC00)
							paired = true
						} else {
							p.pos = save
						}
					}
					if !paired {
						r = uint32(utf8.RuneError)
					}
				}
				buf = utf8.AppendRune(buf, rune(r))
			default:
				return nil, p.errAt("invalid escape")
			}
		case c < utf8.RuneSelf:
			buf = append(buf, c) //lmvet:ignore allocguard scratch buffer grows once to the longest escaped string, then every decode reuses it
			p.pos++
		default:
			r, size := utf8.DecodeRune(p.data[p.pos:])
			if r == utf8.RuneError && size == 1 {
				buf = utf8.AppendRune(buf, utf8.RuneError)
			} else {
				buf = append(buf, p.data[p.pos:p.pos+size]...) //lmvet:ignore allocguard scratch buffer grows once to the longest escaped string, then every decode reuses it
			}
			p.pos += size
		}
	}
	return nil, p.errAt("unterminated string")
}

// readHex4 decodes the 4 hex digits of a \u escape.
func (p *atlasParser) readHex4() (uint32, error) {
	if len(p.data)-p.pos < 4 {
		return 0, p.errAt("short unicode escape")
	}
	var v uint32
	for i := 0; i < 4; i++ {
		c := p.data[p.pos+i]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint32(c-'a'+10)
		case c >= 'A' && c <= 'F':
			v = v<<4 | uint32(c-'A'+10)
		default:
			return 0, p.errAt("bad unicode escape")
		}
	}
	p.pos += 4
	return v, nil
}

func utf16IsSurrogate(r uint32) bool     { return r >= 0xD800 && r < 0xE000 }
func utf16IsHighSurrogate(r uint32) bool { return r >= 0xD800 && r < 0xDC00 }
func utf16IsLowSurrogate(r uint32) bool  { return r >= 0xDC00 && r < 0xE000 }

// skipValue consumes one JSON value of any shape (an unknown field),
// validating its syntax without building anything.
func (p *atlasParser) skipValue(depth int) error {
	if depth > maxSkipDepth {
		return p.errAt("value nested too deeply")
	}
	p.skipSpace()
	if p.pos >= len(p.data) {
		return p.errAt("expected a value")
	}
	switch c := p.data[p.pos]; {
	case c == '"':
		return p.skipString()
	case c == '-' || (c >= '0' && c <= '9'):
		_, err := p.scanNumber()
		return err
	case c == 't':
		return p.expectLiteral(litTrue)
	case c == 'f':
		return p.expectLiteral(litFalse)
	case c == 'n':
		return p.expectLiteral(litNull)
	case c == '{':
		more, err := p.enterObject()
		if err != nil {
			return err
		}
		for more {
			if _, err := p.readKey(); err != nil {
				return err
			}
			if err := p.skipValue(depth + 1); err != nil {
				return err
			}
			if more, err = p.nextMember(); err != nil {
				return err
			}
		}
		return nil
	case c == '[':
		more, err := p.enterArray()
		if err != nil {
			return err
		}
		for more {
			if err := p.skipValue(depth + 1); err != nil {
				return err
			}
			if more, err = p.nextElem(); err != nil {
				return err
			}
		}
		return nil
	}
	return p.errAt("expected a value")
}

// skipString validates one string token without decoding it.
func (p *atlasParser) skipString() error {
	p.pos++ // opening quote, checked by the caller
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		switch {
		case c == '"':
			p.pos++
			return nil
		case c < 0x20:
			return p.errAt("raw control character in string")
		case c == '\\':
			p.pos++
			if p.pos >= len(p.data) {
				return p.errAt("unterminated escape")
			}
			switch p.data[p.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				p.pos++
			case 'u':
				p.pos++
				if _, err := p.readHex4(); err != nil {
					return err
				}
			default:
				return p.errAt("invalid escape")
			}
		default:
			p.pos++
		}
	}
	return p.errAt("unterminated string")
}

package traceroute

import (
	"math"
	"math/big"
	"math/rand"
	"net/netip"
	"strconv"
	"strings"
	"testing"
)

// parseFloatLiteral runs one JSON number literal through the parser's
// float path, requiring it to consume the whole literal.
func parseFloatLiteral(t *testing.T, lit string) (float64, error) {
	t.Helper()
	p := &atlasParser{data: []byte(lit)}
	f, err := p.parseFloatValue()
	if err == nil && p.pos != len(lit) {
		t.Fatalf("%q: consumed %d of %d bytes", lit, p.pos, len(lit))
	}
	return f, err
}

// floatLiterals returns the differential corpus: a fixed list of edge
// cases plus, from a seeded generator, the formats strconv and
// encoding/json write — shortest 'g', 'f' at 0–24 decimals, 'e' at
// several precisions — over random bit patterns, RTT-scale values and
// mantissas with more than 19 digits.
func floatLiterals() []string {
	lits := []string{
		"0", "-0", "0.0", "-0.0", "0e5", "-0E-5", "0.000", "1", "-1",
		"9007199254740991", "9007199254740992", "9007199254740993", // 2^53-1, 2^53, 2^53+1
		"9007199254740993.0", "900719925474099.3", "0.9007199254740993",
		"1e22", "1e23", "1E+22", "1e-22", "1e-23", "9.999999999999999e22",
		"1e30", "1e-30", "1e31", "1e-31", "123456789012345678e12", "1e308", "1e309", "-1e309",
		"1.7976931348623157e308", "-1.7976931348623157e308", "1.7976931348623158e308",
		"1.7976931348623159e308", "2.2250738585072014e-308", "2.2250738585072011e-308",
		"4.9406564584124654e-324", "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
		"1e-400", "-1e-400", "1e99999", "0e99999", "1e-99999",
		"12345678901234567890", "1234567890123456789012345678901234567890",
		"1.2345678901234567890123", "0.00000000000000000000012345678901234567890",
		"9999999999999999999", "99999999999999999999", "10000000000000000000000",
		"1.00000000000000000000000000001", "0.1", "0.2", "0.3", "2.675", "1.005",
		"7.0e-10", "4.35", "0.123", "12.345", "999.999",
		// Halfway cases between adjacent float64s, the ones Eisel–Lemire
		// may leave undecided.
		"9007199254740995", "2.0000000000000002220446049250313080847263336181640625",
		"1.00000000000000011102230246251565404236316680908203125",
		"1.00000000000000011102230246251565404236316680908203124",
		"1.00000000000000011102230246251565404236316680908203126",
	}
	// Long literals against long exponents: digit offsets of 799–10001
	// meet exponents under, at and past expCap, where strconv clips its
	// own exponent reading too.
	for _, n := range []int{799, 800, 9999, 10000, 10001} {
		zeros := strings.Repeat("0", n)
		lits = append(lits,
			"0."+zeros+"1e100000", "0."+zeros+"1e10000", "0."+zeros+"1e99999",
			"1"+zeros+"e-100000", "1"+zeros+"e-10000", "1"+zeros+"e-99999",
			"1"+zeros+"e-"+strconv.Itoa(n), "0."+zeros+"1e"+strconv.Itoa(n+1),
			"1"+zeros+".5e-1000000", "0."+zeros+"7e+0000100000")
	}
	// Exponents scanNumber clips to expCap (10·expCap+5 keeps expCap),
	// with digit offsets that cancel the clipped value: read unclipped,
	// these are 1234567e3 (Clinger) and 1234567890123456789e-5
	// (Eisel–Lemire), so they pass only if clipping sends them to strconv.
	clipped := strconv.Itoa(10*expCap + 5)
	lits = append(lits,
		"0."+strings.Repeat("0", expCap-10)+"1234567e"+clipped,
		"1234567890123456789"+strings.Repeat("0", expCap-5)+"e-"+clipped)
	rng := rand.New(rand.NewSource(13))
	add := func(f float64) {
		lits = append(lits, strconv.FormatFloat(f, 'g', -1, 64))
		lits = append(lits, strconv.FormatFloat(f, 'e', rng.Intn(25), 64))
		if a := math.Abs(f); a < 1e25 && (a == 0 || a > 1e-25) {
			lits = append(lits, strconv.FormatFloat(f, 'f', rng.Intn(25), 64))
		}
	}
	for i := 0; i < 20000; i++ {
		// Random bit patterns: every exponent, subnormals included.
		f := math.Float64frombits(rng.Uint64())
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			add(f)
		}
		// RTT scale: what MarshalAtlas writes for measured delays.
		add(rng.ExpFloat64() * 20)
		// Mantissas past 19 digits, with and without a fraction.
		digits := make([]byte, 20+rng.Intn(10))
		for j := range digits {
			digits[j] = byte('0' + rng.Intn(10))
		}
		digits[0] = byte('1' + rng.Intn(9))
		cut := 1 + rng.Intn(len(digits)-1)
		lits = append(lits, string(digits), string(digits[:cut])+"."+string(digits[cut:]),
			"0.000"+string(digits)+"e-"+strconv.Itoa(rng.Intn(40)))
	}
	for e := -330; e <= 310; e++ {
		// Powers of ten and their neighbours, across the table's edges.
		lits = append(lits, "1e"+strconv.Itoa(e), "9.999999999999999e"+strconv.Itoa(e),
			"1.0000000000000002e"+strconv.Itoa(e))
	}
	return lits
}

// TestParseFloatMatchesStrconv is the deterministic differential test of
// the single-pass number kernel: every literal must decode bit for bit
// as strconv.ParseFloat decodes it, and fail exactly where it fails.
func TestParseFloatMatchesStrconv(t *testing.T) {
	for _, lit := range floatLiterals() {
		for _, s := range []string{lit, "-" + strings.TrimPrefix(lit, "-")} {
			want, wantErr := strconv.ParseFloat(s, 64)
			got, err := parseFloatLiteral(t, s)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%q: err = %v, strconv err = %v", s, err, wantErr)
			}
			if err == nil && math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%q: got %v (%#x), strconv %v (%#x)",
					s, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestShortestRTTsSkipStrconv pins the point of the Eisel–Lemire step:
// the shortest float64 form of a measured RTT — up to 17 significant
// digits, past Clinger's 2^53 mantissa limit — converts without falling
// back to strconv.
func TestShortestRTTsSkipStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		lit := strconv.FormatFloat(0.001+rng.ExpFloat64()*50, 'g', -1, 64)
		p := &atlasParser{data: []byte(lit)}
		n, err := p.scanNumber()
		if err != nil {
			t.Fatalf("%q: %v", lit, err)
		}
		if n.trunc {
			t.Fatalf("%q: mantissa truncated", lit)
		}
		if _, ok := n.float(); !ok {
			t.Fatalf("%q: kernel left the conversion to strconv", lit)
		}
	}
}

// TestPowersOfTenTable regenerates detailedPowersOfTen from math/big:
// each entry is 10^e scaled by a power of two into [2^127, 2^128) and
// rounded down, split into {low, high} 64-bit halves.
func TestPowersOfTenTable(t *testing.T) {
	two128 := new(big.Int).Lsh(big.NewInt(1), 128)
	for e := powersOfTenMinExp10; e <= powersOfTenMaxExp10; e++ {
		pow := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(abs(e))), nil)
		m := new(big.Int)
		if e >= 0 {
			m.Set(pow)
			if shift := m.BitLen() - 128; shift > 0 {
				m.Rsh(m, uint(shift))
			} else {
				m.Lsh(m, uint(-shift))
			}
		} else {
			// floor(2^k / 10^-e) with k chosen to land in [2^127, 2^128).
			m.Lsh(big.NewInt(1), uint(pow.BitLen()+127))
			m.Quo(m, pow)
		}
		if m.BitLen() != 128 || m.Cmp(two128) >= 0 {
			t.Fatalf("1e%d: regenerated mantissa has %d bits", e, m.BitLen())
		}
		lo := new(big.Int).And(m, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
		hi := new(big.Int).Rsh(m, 64).Uint64()
		got := detailedPowersOfTen[e-powersOfTenMinExp10]
		if got != [2]uint64{lo, hi} {
			t.Errorf("1e%d: table {%#x, %#x}, math/big {%#x, %#x}", e, got[0], got[1], lo, hi)
		}
	}
}

func abs(e int) int {
	if e < 0 {
		return -e
	}
	return e
}

// TestParseIntFieldBounds pins the integer path of the number kernel:
// the int64 range minus math.MinInt64, no fraction or exponent, grammar
// errors reported as such.
func TestParseIntFieldBounds(t *testing.T) {
	for _, c := range []struct {
		lit  string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"-0", 0, true},
		{"7", 7, true},
		{"-42", -42, true},
		{"1568894400", 1568894400, true},
		{"9223372036854775807", math.MaxInt64, true},
		{"-9223372036854775807", -math.MaxInt64, true},
		{"9223372036854775808", 0, false},
		{"-9223372036854775808", 0, false},
		{"10000000000000000000", 0, false},
		{"123456789012345678901234", 0, false},
		{"1.0", 0, false},
		{"1e2", 0, false},
		{"-", 0, false},
		{"1.", 0, false},
		{"1e", 0, false},
	} {
		p := &atlasParser{data: []byte(c.lit)}
		v, _, err := p.parseIntField()
		if (err == nil) != c.ok || (c.ok && (v != c.want || p.pos != len(c.lit))) {
			t.Errorf("%q: got %d, %v; want %d, ok=%v", c.lit, v, err, c.want, c.ok)
		}
	}
}

// TestReadKeyFolds pins readKey's one-shot folding: plain lowercase keys
// come back as the input bytes themselves, folded ones match their field
// exactly, and other non-ASCII runes match nothing.
func TestReadKeyFolds(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{`"prb_id":`, "prb_id"},
		{`"PRB_ID":`, "prb_id"},
		{`"Timestamp":`, "timestamp"},
		{"\"\u017Frc_addr\":", "src_addr"},
		{"\"\u017FRC_ADDR\":", "src_addr"},
		{`"\u017frc_addr":`, "src_addr"},
		{"\"\u212A\":", "k"},
		{`"prb_id":`, "prb_id"},
		{`"prb_íd":`, ""},
		{`"é":`, ""},
		{`"":`, ""},
	} {
		p := &atlasParser{data: []byte(c.in)}
		key, err := p.readKey()
		if err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		if string(key) != c.want {
			t.Errorf("%s: key %q, want %q", c.in, key, c.want)
		}
	}
	// A plain key is not copied.
	data := []byte(`"rtt":`)
	p := &atlasParser{data: data}
	key, err := p.readKey()
	if err != nil || len(key) == 0 || &key[0] != &data[1] {
		t.Fatalf("plain key copied or lost: %q, %v", key, err)
	}
}

// TestReplyAddressMemo decodes replies whose sources alternate within a
// hop and repeat across results through one parser, so the memo is hit
// and missed in turn; every address must be the one its own literal
// names.
func TestReplyAddressMemo(t *testing.T) {
	lines := []string{
		`{"result":[{"hop":1,"result":[{"from":"10.0.0.1","rtt":1},{"from":"10.0.0.2","rtt":2},{"from":"10.0.0.1","rtt":3}]}]}`,
		`{"result":[{"hop":1,"result":[{"from":"10.0.0.1","rtt":1},{"x":"*"},{"from":"10.0.0.1","rtt":1}]}]}`,
		`{"result":[{"hop":1,"result":[{"from":"::ffff:10.0.0.1","rtt":1},{"from":"2001:db8::1","rtt":1}]}]}`,
		`{"result":[{"hop":1,"result":[{"from":"10.0.0.10","rtt":1},{"from":"10.0.0.1","rtt":1}]}]}`,
	}
	var r Result
	for _, line := range lines {
		want, err := ParseAtlas([]byte(line))
		if err != nil {
			t.Fatal(err)
		}
		if err := ParseAtlasInto(&r, []byte(line)); err != nil {
			t.Fatal(err)
		}
		if !resultsIdentical(want, &r) {
			t.Fatalf("memo changed a result:\nwant %+v\n got %+v\ninput: %s", want, &r, line)
		}
	}
	if got := r.Hops[0].Replies[1].From; got != netip.MustParseAddr("10.0.0.1") {
		t.Fatalf("last reply from %v", got)
	}
	// A bad literal after a memoised good one still fails.
	bad := `{"result":[{"hop":1,"result":[{"from":"10.0.0.1","rtt":1},{"from":"10.0.0.1x","rtt":1}]}]}`
	if err := ParseAtlasInto(&r, []byte(bad)); err == nil {
		t.Fatal("bad reply address accepted after a memo hit")
	}
}

// Package ipnet provides the IP address utilities the last-mile pipeline
// needs: private/special-purpose address classification (to find the
// boundary between the home network and the ISP edge in a traceroute), a
// binary radix trie with longest-prefix match (to map probe addresses to
// origin ASes, as the paper does against BGP data), and prefix sets (to
// strip mobile prefixes from CDN logs).
package ipnet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// v4Private holds the IPv4 blocks IsPrivate matches, RFC 1918's three
// first, as network address and prefix length. Matching one is a shift
// and a compare on the address's uint32: classification runs for every
// traceroute reply, where looping over netip.Prefix.Contains showed up
// in profiles.
var v4Private = [...]struct {
	net  uint32
	bits uint
}{
	{10 << 24, 8},           // 10.0.0.0/8 (RFC 1918)
	{172<<24 | 16<<16, 12},  // 172.16.0.0/12 (RFC 1918)
	{192<<24 | 168<<16, 16}, // 192.168.0.0/16 (RFC 1918)
	{100<<24 | 64<<16, 10},  // 100.64.0.0/10 (CGNAT, RFC 6598)
	{169<<24 | 254<<16, 16}, // 169.254.0.0/16 (link-local)
	{127 << 24, 8},          // 127.0.0.0/8 (loopback)
}

// Special-purpose IPv6 blocks. All literals are valid, so
// MustParsePrefix cannot panic here.
var (
	ulaV6  = netip.MustParsePrefix("fc00::/7")
	linkV6 = netip.MustParsePrefix("fe80::/10")
)

// inV4Private reports whether the IPv4 address a lies in one of the
// first n blocks of v4Private.
func inV4Private(a netip.Addr, n int) bool {
	b := a.As4()
	v := binary.BigEndian.Uint32(b[:])
	for _, p := range v4Private[:n] {
		if v>>(32-p.bits) == p.net>>(32-p.bits) {
			return true
		}
	}
	return false
}

// IsRFC1918 reports whether addr falls in one of the three RFC 1918
// private IPv4 blocks.
func IsRFC1918(addr netip.Addr) bool {
	if !addr.Is4() && !addr.Is4In6() {
		return false
	}
	return inV4Private(addr.Unmap(), 3)
}

// IsPrivate reports whether addr should be treated as belonging to the
// subscriber side of the last mile: RFC 1918, CGNAT (RFC 6598), link-local,
// loopback, IPv6 ULA, or IPv6 link-local. The paper identifies the ISP edge
// as the first hop that is NOT one of these.
func IsPrivate(addr netip.Addr) bool {
	if !addr.IsValid() {
		return false
	}
	a := addr.Unmap()
	if a.Is4() {
		return inV4Private(a, len(v4Private))
	}
	return ulaV6.Contains(a) || linkV6.Contains(a) || a.IsLoopback()
}

// IsPublic reports whether addr is a valid, globally routable unicast
// address (the paper's "first public IP").
func IsPublic(addr netip.Addr) bool {
	if !addr.IsValid() || addr.IsUnspecified() || addr.IsMulticast() {
		return false
	}
	return !IsPrivate(addr)
}

// ParseAddr parses s into a netip.Addr, unmapping IPv4-in-IPv6 forms so
// that equal addresses compare equal.
func ParseAddr(s string) (netip.Addr, error) {
	a, err := netip.ParseAddr(s)
	if err != nil {
		return netip.Addr{}, fmt.Errorf("ipnet: %w", err)
	}
	return a.Unmap(), nil
}

// AddrBit returns bit i (0 = most significant) of addr's binary
// representation. It panics if i is out of range for the address family.
func AddrBit(addr netip.Addr, i int) byte {
	bytes := addr.As16()
	off := 0
	if addr.Is4() {
		bytes16 := addr.As4()
		if i < 0 || i >= 32 {
			panic(fmt.Sprintf("ipnet: bit %d out of range for IPv4", i))
		}
		return (bytes16[i/8] >> (7 - i%8)) & 1
	}
	if i < 0 || i >= 128 {
		panic(fmt.Sprintf("ipnet: bit %d out of range for IPv6", i))
	}
	return (bytes[off+i/8] >> (7 - i%8)) & 1
}

// HostAt returns the n-th host address inside prefix (0 = network
// address). It returns an error when n exceeds the prefix's host space.
// The scenario generator uses it to hand out deterministic addresses.
func HostAt(prefix netip.Prefix, n uint64) (netip.Addr, error) {
	bits := prefix.Addr().BitLen()
	hostBits := bits - prefix.Bits()
	if hostBits < 64 && hostBits >= 0 {
		max := uint64(1) << uint(hostBits)
		if hostBits != 0 && n >= max {
			return netip.Addr{}, fmt.Errorf("ipnet: host index %d exceeds /%d prefix", n, prefix.Bits())
		}
		if hostBits == 0 && n > 0 {
			return netip.Addr{}, fmt.Errorf("ipnet: host index %d exceeds /%d prefix", n, prefix.Bits())
		}
	}
	if prefix.Addr().Is4() {
		b := prefix.Masked().Addr().As4()
		v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
		v += uint32(n)
		return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}), nil
	}
	b := prefix.Masked().Addr().As16()
	// Add n to the low 64 bits; prefixes used by the generator are /64 or
	// shorter, so the carry never propagates past bit 64 in practice.
	var low uint64
	for i := 8; i < 16; i++ {
		low = low<<8 | uint64(b[i])
	}
	low += n
	for i := 15; i >= 8; i-- {
		b[i] = byte(low)
		low >>= 8
	}
	return netip.AddrFrom16(b), nil
}

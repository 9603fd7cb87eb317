package bgp

import (
	"encoding/binary"
	"strings"
	"testing"

	"centralium/internal/core"
)

// advKeyInput decodes one fuzzed advertisement: the path as big-endian
// 4-byte ASNs (a short tail is ignored), the communities as a
// NUL-separated list (empty string: none), and any origin value.
func advKeyInput(path []byte, comms string, origin uint8) ([]uint32, []string, core.Origin) {
	asns := make([]uint32, 0, len(path)/4)
	for len(path) >= 4 {
		asns = append(asns, binary.BigEndian.Uint32(path))
		path = path[4:]
	}
	var cs []string
	if comms != "" {
		cs = strings.Split(comms, "\x00")
	}
	return asns, cs, core.Origin(origin)
}

// FuzzAdvKeyMatches checks the allocation-free duplicate-suppression test
// against the key it replaces: for any two advertisements x and y,
// advKeyMatches(advKeyOf(x), y) == (advKeyOf(x) == advKeyOf(y)). Keys are
// plain concatenations, so communities holding the separators ("," or
// "|") make distinct advertisements collide; the comparison must
// reproduce those collisions exactly, not repair them. The checked-in
// corpus (testdata/fuzz/FuzzAdvKeyMatches) covers ASN 0, an empty path,
// unsorted and duplicate communities, separator-bearing communities, and
// more communities than the comparison orders on the stack.
//
// Run locally with:
//
//	go test ./internal/bgp -run '^$' -fuzz FuzzAdvKeyMatches -fuzztime 30s
func FuzzAdvKeyMatches(f *testing.F) {
	f.Fuzz(func(t *testing.T, px []byte, cx string, ox uint8, py []byte, cy string, oy uint8) {
		pathX, commsX, originX := advKeyInput(px, cx, ox)
		pathY, commsY, originY := advKeyInput(py, cy, oy)
		key := advKeyOf(pathX, commsX, originX)
		if !advKeyMatches(key, pathX, commsX, originX) {
			t.Fatalf("key %q does not match its own advertisement", key)
		}
		want := key == advKeyOf(pathY, commsY, originY)
		if got := advKeyMatches(key, pathY, commsY, originY); got != want {
			t.Fatalf("advKeyMatches(%q, %v, %q, %v) = %v, key comparison says %v",
				key, pathY, commsY, originY, got, want)
		}
	})
}

// TestAdvKeyMatchesAllocFree pins the point of advKeyMatches: comparing a
// stored key against an unchanged advertisement allocates nothing.
func TestAdvKeyMatchesAllocFree(t *testing.T) {
	path := []uint32{65000, 65000, 4200000000, 0, 7}
	comms := []string{"ZONE_B", "BACKBONE_DEFAULT_ROUTE", "ZONE_A"}
	key := advKeyOf(path, comms, core.OriginIGP)
	if allocs := testing.AllocsPerRun(100, func() {
		if !advKeyMatches(key, path, comms, core.OriginIGP) {
			t.Fatal("unchanged advertisement did not match its key")
		}
	}); allocs != 0 {
		t.Errorf("advKeyMatches allocated %.1f times per call, want 0", allocs)
	}
}

package sweep

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/core"
)

// Fuzz target for the on-disk format the sweep engine trusts its
// resumability to: the bmcell sample file. The corpus is checked in as
// code (the repo's netsim/httpsim convention) so `go test` replays it on
// every CI run even without -fuzz.

// cellSeedCorpus covers the decoder's interesting shapes: valid, empty,
// torn-tail, flipped-byte, wrong sample count, and plain garbage.
func cellSeedCorpus() [][]byte {
	samples := []core.Sample{
		{Run: 0, Round: 1, BrowserRTT: 3 * time.Millisecond, WireRTT: time.Millisecond, Overhead: 2 * time.Millisecond},
		{Run: 0, Round: 2, BrowserRTT: 2 * time.Millisecond, WireRTT: time.Millisecond, Overhead: time.Millisecond, Handshake: true},
	}
	key := fmt.Sprintf("%064x", 2)
	valid := encodeCell(key, samples)
	empty := encodeCell(key, nil)
	torn := append([]byte(nil), valid[:len(valid)-20]...)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01
	badCount := bytes.Replace(append([]byte(nil), valid...), []byte("\nn 2\n"), []byte("\nn 3\n"), 1)
	return [][]byte{
		valid,
		empty,
		torn,
		flipped,
		badCount,
		nil,
		[]byte("\n"),
		[]byte(cellMagic + "\n"),
		[]byte("bmcell v2\nkey 00\nn 0\nsum 00\n"),
		bytes.Repeat([]byte("s 1 1 1 1 0\n"), 32),
	}
}

// checkCellDecode holds decodeCell's fuzz invariants: no panics, and an
// accepted decode re-encodes canonically to the same key and samples, with
// Overhead always the exact BrowserRTT − WireRTT.
func checkCellDecode(t *testing.T, data []byte) {
	t.Helper()
	key, samples, err := decodeCell(data)
	if err != nil {
		return
	}
	for _, s := range samples {
		if s.Overhead != s.BrowserRTT-s.WireRTT {
			t.Fatalf("accepted inconsistent sample: %+v", s)
		}
		if s.Run < 0 || s.Round < 1 {
			t.Fatalf("accepted out-of-range sample: %+v", s)
		}
	}
	again := encodeCell(key, samples)
	key2, samples2, err2 := decodeCell(again)
	if err2 != nil || key2 != key || !reflect.DeepEqual(samples2, samples) {
		t.Fatalf("cell round-trip diverged: err=%v", err2)
	}
}

func FuzzCellDecode(f *testing.F) {
	for _, seed := range cellSeedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkCellDecode(t, data) })
}

// TestSweepFuzzSeedCorpus replays the seed corpus as a plain test so the
// invariants run under `go test` (and CI) without -fuzz.
func TestSweepFuzzSeedCorpus(t *testing.T) {
	for _, seed := range cellSeedCorpus() {
		seed := seed
		t.Run("cell", func(t *testing.T) { checkCellDecode(t, seed) })
	}
}

// TestCellSeedCorpusValidSeedDecodes sanity-checks that the "valid" seed
// really exercises the accept path (a corpus of rejects would prove
// nothing).
func TestCellSeedCorpusValidSeedDecodes(t *testing.T) {
	if _, _, err := decodeCell(cellSeedCorpus()[0]); err != nil {
		t.Fatalf("canonical seed rejected: %v", err)
	}
}

// TestParseDecMatchesStrconv: the cell decoder's in-place integer parser
// accepts exactly what strconv.ParseInt(s, 10, 64) accepts, with the same
// value, so decoding without building strings changes no verdict.
func TestParseDecMatchesStrconv(t *testing.T) {
	check := func(s string) {
		t.Helper()
		want, err := strconv.ParseInt(s, 10, 64)
		got, ok := parseDec([]byte(s))
		if ok != (err == nil) || (ok && got != want) {
			t.Fatalf("parseDec(%q) = %d, %v; strconv says %d, %v", s, got, ok, want, err)
		}
	}
	for _, s := range []string{"", "+", "-", "0", "-0", "+0", "007", "12 ", " 12", "1_000", "0x10", "1e3",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"+9223372036854775807", "18446744073709551615", "18446744073709551616", "99999999999999999999",
		"--1", "+-1", "1-", "٣"} {
		check(s)
	}
	rng := rand.New(rand.NewSource(5))
	const alphabet = "+-0123456789 _x9"
	for i := 0; i < 200_000; i++ {
		b := make([]byte, rng.Intn(22))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		check(string(b))
		check(strconv.FormatInt(rng.Int63()>>uint(rng.Intn(63))*int64(1-2*rng.Intn(2)), 10))
	}
}

package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"time"

	"github.com/browsermetric/browsermetric/internal/core"
)

// Cell file format v1 — a deterministic, self-checking text encoding of
// one cell's samples:
//
//	bmcell v1
//	key <64 hex>
//	n <sample count>
//	s <run> <round> <browser_ns> <wire_ns> <handshake 0|1>   (n lines)
//	sum <64 hex>                                             (SHA-256 of everything above)
//
// Overhead is not stored: it is rederived as BrowserRTT − WireRTT, the
// exact integer arithmetic RunContext performs, so the file cannot even
// express an inconsistent triple. The trailing checksum covers every
// preceding byte; a flipped bit or truncation anywhere fails decodeCell,
// which the cache treats as a miss (detect, log, recompute).

const cellMagic = "bmcell v1"

// encodeCell renders samples under their content-address key.
func encodeCell(key string, samples []core.Sample) []byte {
	var b bytes.Buffer
	b.WriteString(cellMagic)
	b.WriteByte('\n')
	b.WriteString("key ")
	b.WriteString(key)
	b.WriteByte('\n')
	b.WriteString("n ")
	b.WriteString(strconv.Itoa(len(samples)))
	b.WriteByte('\n')
	for _, s := range samples {
		h := byte('0')
		if s.Handshake {
			h = '1'
		}
		fmt.Fprintf(&b, "s %d %d %d %d %c\n", s.Run, s.Round, int64(s.BrowserRTT), int64(s.WireRTT), h)
	}
	sum := sha256.Sum256(b.Bytes())
	b.WriteString("sum ")
	b.WriteString(hex.EncodeToString(sum[:]))
	b.WriteByte('\n')
	return b.Bytes()
}

// decodeCell parses and verifies a cell file, returning the stored key
// and samples. Any framing violation, count mismatch, malformed field, or
// checksum failure is an error; the function never panics on arbitrary
// input (FuzzCellDecode enforces this).
func decodeCell(data []byte) (key string, samples []core.Sample, err error) {
	// Split off the trailing "sum <hex>\n" line and verify it first: the
	// checksum covers everything, so nothing else need be trusted before.
	trimmed := data
	if len(trimmed) == 0 || trimmed[len(trimmed)-1] != '\n' {
		return "", nil, fmt.Errorf("sweep: cell file: missing trailing newline")
	}
	trimmed = trimmed[:len(trimmed)-1]
	nl := bytes.LastIndexByte(trimmed, '\n')
	sumLine := trimmed[nl+1:] // nl == -1 leaves the whole (single) line
	body := data[:nl+1]
	if nl < 0 {
		return "", nil, fmt.Errorf("sweep: cell file: no body before checksum")
	}
	sumHex, ok := bytes.CutPrefix(sumLine, []byte("sum "))
	if !ok {
		return "", nil, fmt.Errorf("sweep: cell file: last line is not a checksum")
	}
	want, err := hex.DecodeString(string(sumHex))
	if err != nil || len(want) != sha256.Size {
		return "", nil, fmt.Errorf("sweep: cell file: malformed checksum")
	}
	got := sha256.Sum256(body)
	if !bytes.Equal(got[:], want) {
		return "", nil, fmt.Errorf("sweep: cell file: checksum mismatch (corrupt entry)")
	}

	// Walk the body line by line (every line ends in '\n') and field by
	// field in place: a warm sweep decodes every cell it replays.
	nLines := bytes.Count(body, []byte{'\n'})
	rest := body
	next := func() []byte {
		i := bytes.IndexByte(rest, '\n')
		ln := rest[:i]
		rest = rest[i+1:]
		return ln
	}
	if nLines < 3 || string(next()) != cellMagic {
		return "", nil, fmt.Errorf("sweep: cell file: bad header")
	}
	keyHex, ok := bytes.CutPrefix(next(), []byte("key "))
	if !ok || len(keyHex) != 64 || !isLowerHex(keyHex) {
		return "", nil, fmt.Errorf("sweep: cell file: bad key line")
	}
	nStr, ok := bytes.CutPrefix(next(), []byte("n "))
	if !ok {
		return "", nil, fmt.Errorf("sweep: cell file: bad count line")
	}
	n, err := strconv.Atoi(string(nStr))
	if err != nil || n < 0 || n != nLines-3 {
		return "", nil, fmt.Errorf("sweep: cell file: sample count %q does not match %d lines", nStr, nLines-3)
	}

	samples = make([]core.Sample, 0, n)
	var f [6][]byte
	for range n {
		ln := next()
		if bytes.Count(ln, []byte{' '}) != len(f)-1 {
			return "", nil, fmt.Errorf("sweep: cell file: bad sample line %q", ln)
		}
		rem := ln
		for i := range f {
			f[i], rem, _ = bytes.Cut(rem, []byte{' '})
		}
		if string(f[0]) != "s" {
			return "", nil, fmt.Errorf("sweep: cell file: bad sample line %q", ln)
		}
		run, ok1 := parseDec(f[1])
		round, ok2 := parseDec(f[2])
		browserNs, ok3 := parseDec(f[3])
		wireNs, ok4 := parseDec(f[4])
		if !ok1 || !ok2 || !ok3 || !ok4 || run < 0 || round < 1 {
			return "", nil, fmt.Errorf("sweep: cell file: bad sample fields %q", ln)
		}
		var handshake bool
		switch string(f[5]) {
		case "0":
		case "1":
			handshake = true
		default:
			return "", nil, fmt.Errorf("sweep: cell file: bad handshake flag %q", ln)
		}
		samples = append(samples, core.Sample{
			Run:        int(run),
			Round:      int(round),
			BrowserRTT: durNs(browserNs),
			WireRTT:    durNs(wireNs),
			Overhead:   durNs(browserNs - wireNs),
			Handshake:  handshake,
		})
	}
	return string(keyHex), samples, nil
}

// parseDec is strconv.ParseInt(string(b), 10, 64) without building the
// string: an optional sign, at least one decimal digit, int64 range.
func parseDec(b []byte) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	lim := uint64(1<<63 - 1)
	if neg {
		lim = 1 << 63
	}
	var u uint64
	for _, c := range b {
		d := uint64(c - '0')
		if d > 9 || u > (lim-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	if neg {
		return int64(-u), true
	}
	return int64(u), true
}

func durNs(ns int64) time.Duration { return time.Duration(ns) }

func isLowerHex(b []byte) bool {
	for _, c := range b {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

package core

import (
	"bytes"
	"encoding/csv"
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/stats"
)

func smallStudy(t *testing.T) *Study {
	t.Helper()
	st, err := RunStudy(StudyOptions{
		Methods: []methods.Kind{methods.WebSocket, methods.JavaTCP},
		Runs:    4,
		Gap:     time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestWriteCSV(t *testing.T) {
	st := smallStudy(t)
	var buf bytes.Buffer
	if err := st.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// Header + (WS on 6 combos + JavaTCP on 8 combos) × 4 runs × 2 rounds.
	want := 1 + (6+8)*4*2
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	if rows[0][0] != "method" || rows[0][8] != "handshake" {
		t.Fatalf("header = %v", rows[0])
	}
	// Every data row parses and satisfies Eq. 1.
	for _, r := range rows[1:] {
		browserMs, err1 := strconv.ParseFloat(r[5], 64)
		wireMs, err2 := strconv.ParseFloat(r[6], 64)
		ovMs, err3 := strconv.ParseFloat(r[7], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("unparseable row %v", r)
		}
		if d := browserMs - wireMs - ovMs; d > 0.001 || d < -0.001 {
			t.Fatalf("Eq.1 violated in CSV row %v", r)
		}
	}
}

func TestSummaryCSV(t *testing.T) {
	st := smallStudy(t)
	var buf bytes.Buffer
	if err := st.SummaryCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + (6+8)*2 // header + cells × rounds
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	// Box ordering invariant inside each row: q1 <= median <= q3.
	for _, r := range rows[1:] {
		q1, _ := strconv.ParseFloat(r[6], 64)
		med, _ := strconv.ParseFloat(r[7], 64)
		q3, _ := strconv.ParseFloat(r[8], 64)
		if !(q1 <= med && med <= q3) {
			t.Fatalf("quartiles out of order in %v", r)
		}
	}
}

func TestExperimentWriteCSV(t *testing.T) {
	exp := quickExp(t, methods.DOM, browser.Chrome, browser.Ubuntu, browser.NanoTime, 5)
	var buf bytes.Buffer
	if err := exp.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DOM") {
		t.Fatal("method name missing from experiment CSV")
	}
	lines := strings.Count(strings.TrimSpace(buf.String()), "\n")
	if lines != 10 { // 5 runs × 2 rounds (header adds the 11th line - 1)
		t.Fatalf("data lines = %d, want 10", lines)
	}
}

// refSampleCSV is the per-row encoding/csv export SampleWriter replaced:
// the byte reference it must reproduce.
func refSampleCSV(t *testing.T, leadCol string, leads []string, studies []*Study) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	ms := func(d time.Duration) string { return strconv.FormatFloat(stats.Ms(d), 'f', 4, 64) }
	header := []string{"method", "browser", "os", "run", "round",
		"browser_rtt_ms", "wire_rtt_ms", "overhead_ms", "handshake"}
	if leadCol != "" {
		header = append([]string{leadCol}, header...)
	}
	cw.Write(header)
	for si, st := range studies {
		for _, c := range st.Cells {
			if c.Skipped {
				continue
			}
			for _, smp := range c.Exp.Samples {
				rec := []string{c.Spec.Name, c.Profile.Browser.String(), c.Profile.OS.String(),
					strconv.Itoa(smp.Run), strconv.Itoa(smp.Round),
					ms(smp.BrowserRTT), ms(smp.WireRTT), ms(smp.Overhead),
					strconv.FormatBool(smp.Handshake)}
				if leadCol != "" {
					rec = append([]string{leads[si]}, rec...)
				}
				cw.Write(rec)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// syntheticStudy builds cells whose names need every kind of CSV quoting
// and whose samples hit the formatter's edge cases (ties, negatives,
// huge values), with enough rows to cross several buffer flushes.
func syntheticStudy(rng *rand.Rand) *Study {
	names := []string{"XHR GET", `Flash "POST"`, "a,b", " lead space", `\.`, "multi\nline", ""}
	profs := browser.Profiles()
	st := &Study{}
	for i, name := range names {
		c := Cell{Spec: methods.Spec{Name: name}, Profile: profs[i%len(profs)]}
		if i == 3 {
			c.Skipped = true
			st.Cells = append(st.Cells, c)
			continue
		}
		exp := &Experiment{}
		for run := 0; run < 300; run++ {
			for round := 1; round <= 2; round++ {
				d := func() time.Duration {
					switch rng.Intn(5) {
					case 0:
						return time.Duration(rng.Intn(1e6))*100 + 50 // tie
					case 1:
						return -time.Duration(rng.Int63n(1e8))
					case 2:
						return time.Duration(rng.Int63())
					default:
						return time.Duration(rng.Int63n(2e8))
					}
				}
				exp.Samples = append(exp.Samples, Sample{Run: run, Round: round,
					BrowserRTT: d(), WireRTT: d(), Overhead: d(), Handshake: rng.Intn(2) == 0})
			}
		}
		c.Exp = exp
		st.Cells = append(st.Cells, c)
	}
	return st
}

// TestSampleWriterMatchesEncodingCSV: the one sample-row encoder behind
// Study.WriteCSV and the sweep export writes exactly the bytes
// encoding/csv writes for the same records, with and without a leading
// column.
func TestSampleWriterMatchesEncodingCSV(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := syntheticStudy(rng), syntheticStudy(rng)

	var got bytes.Buffer
	if err := a.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if want := refSampleCSV(t, "", nil, []*Study{a}); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Study.WriteCSV differs from encoding/csv (%d vs %d bytes)", got.Len(), len(want))
	}

	leads := []string{"bursty,wifi", ` "quoted"`}
	got.Reset()
	sw := NewSampleWriter(&got, "fault s")
	for i, st := range []*Study{a, b} {
		sw.SetLead(leads[i])
		if err := sw.WriteStudy(st); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := refSampleCSV(t, "fault s", leads, []*Study{a, b}); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("lead-column export differs from encoding/csv (%d vs %d bytes)", got.Len(), len(want))
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n == 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

// TestSampleWriterReportsWriteError: a failing writer surfaces from the
// flush that hit it, mid-study or at the end.
func TestSampleWriterReportsWriteError(t *testing.T) {
	st := syntheticStudy(rand.New(rand.NewSource(1)))
	for n := 0; n < 3; n++ {
		if err := st.WriteCSV(&failWriter{n: n}); err == nil || err.Error() != "disk full" {
			t.Errorf("after %d good writes: err = %v, want disk full", n, err)
		}
	}
}

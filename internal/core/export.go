package core

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/stats"
)

// WriteCSV exports every sample of the study as CSV for external plotting
// (the paper's figures are box plots/CDFs over exactly these rows).
// Columns: method, browser, os, run, round, browser_rtt_ms, wire_rtt_ms,
// overhead_ms, handshake.
func (s *Study) WriteCSV(w io.Writer) error {
	sw := NewSampleWriter(w)
	if err := sw.WriteStudy(s); err != nil {
		return err
	}
	return sw.Flush()
}

// WriteCSV exports one experiment's samples with the same columns.
func (e *Experiment) WriteCSV(w io.Writer) error {
	st := &Study{Cells: []Cell{{
		Spec:    methods.Get(e.Config.Method),
		Profile: e.Config.Profile,
		Exp:     e,
	}}}
	return st.WriteCSV(w)
}

// sampleFlushAt is the buffered size at which SampleWriter writes out.
const sampleFlushAt = 32 << 10

// SampleWriter encodes the per-sample CSV export: Study.WriteCSV and the
// sweep export (which adds a leading faults column) both go through it.
// Its output is byte-identical to encoding/csv writing the same records,
// built without a per-row allocation: rows are appended into one reused
// buffer, the fields constant across a cell (lead columns, method,
// browser, OS) are encoded once per cell by encoding/csv itself, and the
// millisecond columns come from stats.AppendMs.
type SampleWriter struct {
	w   io.Writer
	buf []byte
	// lead holds the current leading column values (see SetLead).
	lead []string
	// prefix receives a cell's constant fields from cw; record is the
	// scratch record cw encodes. err is the first write error, sticky.
	prefix bytes.Buffer
	cw     *csv.Writer
	record []string
	err    error
}

// NewSampleWriter starts an export on w. leadCols name extra leading
// columns ahead of method, browser, os, run, round, browser_rtt_ms,
// wire_rtt_ms, overhead_ms and handshake; SetLead gives their values.
// Nothing reaches w before the first WriteStudy or Flush.
func NewSampleWriter(w io.Writer, leadCols ...string) *SampleWriter {
	sw := &SampleWriter{w: w, buf: make([]byte, 0, 2*sampleFlushAt)}
	sw.cw = csv.NewWriter(&sw.prefix)
	sw.record = append(sw.record, leadCols...)
	sw.record = append(sw.record, "method", "browser", "os", "run", "round",
		"browser_rtt_ms", "wire_rtt_ms", "overhead_ms", "handshake")
	sw.buf = append(sw.buf, sw.encode()...)
	return sw
}

// SetLead sets the leading column values of the rows written next, one
// per lead column.
func (sw *SampleWriter) SetLead(vals ...string) { sw.lead = append(sw.lead[:0], vals...) }

// encode returns sw.record as encoding/csv writes it, newline included;
// writing into a bytes.Buffer cannot fail. The result aliases sw.prefix
// until the next call.
func (sw *SampleWriter) encode() []byte {
	sw.prefix.Reset()
	_ = sw.cw.Write(sw.record)
	sw.cw.Flush()
	return sw.prefix.Bytes()
}

// WriteStudy appends a row per sample of every non-skipped cell of st, in
// cell order.
func (sw *SampleWriter) WriteStudy(st *Study) error {
	for i := range st.Cells {
		c := &st.Cells[i]
		if c.Skipped {
			continue
		}
		sw.record = append(append(sw.record[:0], sw.lead...),
			c.Spec.Name, c.Profile.Browser.String(), c.Profile.OS.String())
		prefix := sw.encode()
		prefix[len(prefix)-1] = ',' // the row goes on after these fields
		b := sw.buf
		for _, smp := range c.Exp.Samples {
			b = append(b, prefix...)
			b = strconv.AppendInt(b, int64(smp.Run), 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(smp.Round), 10)
			b = append(b, ',')
			b = stats.AppendMs(b, smp.BrowserRTT)
			b = append(b, ',')
			b = stats.AppendMs(b, smp.WireRTT)
			b = append(b, ',')
			b = stats.AppendMs(b, smp.Overhead)
			b = append(b, ',')
			b = strconv.AppendBool(b, smp.Handshake)
			b = append(b, '\n')
			if len(b) >= sampleFlushAt {
				sw.buf = b
				if err := sw.Flush(); err != nil {
					return err
				}
				b = sw.buf
			}
		}
		sw.buf = b
	}
	return sw.err
}

// Flush writes the buffered rows to the underlying writer.
func (sw *SampleWriter) Flush() error {
	if sw.err == nil && len(sw.buf) > 0 {
		_, sw.err = sw.w.Write(sw.buf)
	}
	sw.buf = sw.buf[:0]
	return sw.err
}

func fmtMs(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// SummaryCSV writes one row per (method, combo, round) with the box
// statistics — the exact numbers behind each Figure 3 glyph.
func (s *Study) SummaryCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"method", "combo", "round", "n",
		"min_ms", "whisker_lo_ms", "q1_ms", "median_ms", "q3_ms", "whisker_hi_ms", "max_ms", "outliers",
	}); err != nil {
		return err
	}
	for i := range s.Cells {
		c := &s.Cells[i]
		if c.Skipped {
			continue
		}
		for round := 1; round <= 2; round++ {
			b := c.Exp.Box(round)
			rec := []string{
				c.Spec.Name,
				c.Profile.Label(),
				strconv.Itoa(round),
				strconv.Itoa(b.N),
				fmtMs(b.Min), fmtMs(b.WhiskerLo), fmtMs(b.Q1), fmtMs(b.Median),
				fmtMs(b.Q3), fmtMs(b.WhiskerHi), fmtMs(b.Max),
				strconv.Itoa(len(b.Outliers)),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("core: summary csv: %w", err)
	}
	return nil
}

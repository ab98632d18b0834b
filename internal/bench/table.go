// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§4): the SPECseis, LaTeX and
// kernel-compilation application benchmarks over Local/LAN/WAN/WAN+C
// storage scenarios (Figures 3–5), the VM cloning experiments
// (Figure 6), sequential-versus-parallel cloning (Table 1), the
// zero-block filtering measurement, and ablations over the design
// choices (write policy, meta-data, cache geometry, tunneling).
//
// Experiments run single-machine over emulated links with the paper's
// network parameters; data sizes and compute times are divided by a
// configurable scale factor, so measured times map back to paper scale
// by multiplying by the same factor (every duration component —
// RPC-count×latency, bytes/bandwidth, CPU — scales linearly).
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// Table is one regenerated experiment result: a labelled grid of
// measurements in seconds.
type Table struct {
	ID      string // e.g. "fig3"
	Title   string
	Scale   float64
	Columns []string
	Rows    []Row
	Notes   []string
}

// Row is one table row.
type Row struct {
	Label  string
	Values []float64 // seconds; NaN prints blank (null in JSON)
}

// MarshalJSON encodes NaN cells as null, which encoding/json cannot
// represent as a float.
func (r Row) MarshalJSON() ([]byte, error) {
	vals := make([]any, len(r.Values))
	for i, v := range r.Values {
		if !math.IsNaN(v) {
			vals[i] = v
		}
	}
	return json.Marshal(struct {
		Label  string
		Values []any
	}{r.Label, vals})
}

// AddRow appends a row of durations.
func (t *Table) AddRow(label string, durs ...time.Duration) {
	vals := make([]float64, len(durs))
	for i, d := range durs {
		vals[i] = d.Seconds()
	}
	t.Rows = append(t.Rows, Row{Label: label, Values: vals})
}

// AddValueRow appends a row of raw, unitless values — counts, ratios —
// for experiments whose columns are not durations.
func (t *Table) AddValueRow(label string, vals ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Values: vals})
}

// AddNote appends a free-form annotation printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Value returns the cell at (rowLabel, column).
func (t *Table) Value(rowLabel, column string) (float64, bool) {
	col := -1
	for i, c := range t.Columns {
		if c == column {
			col = i
			break
		}
	}
	if col < 0 {
		return 0, false
	}
	for _, r := range t.Rows {
		if r.Label == rowLabel && col < len(r.Values) {
			return r.Values[col], true
		}
	}
	return 0, false
}

// Print renders the table.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", strings.ToUpper(t.ID), t.Title)
	if t.Scale > 1 {
		fmt.Fprintf(w, "(measured at 1/%.0f scale; multiply by %.0f to estimate paper-scale seconds)\n",
			t.Scale, t.Scale)
	}
	width := 14
	label := 24
	fmt.Fprintf(w, "%-*s", label, "")
	for _, c := range t.Columns {
		fmt.Fprintf(w, "%*s", width, c)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-*s", label, r.Label)
		for _, v := range r.Values {
			if math.IsNaN(v) {
				fmt.Fprintf(w, "%*s", width, "")
				continue
			}
			fmt.Fprintf(w, "%*.2f", width, v)
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

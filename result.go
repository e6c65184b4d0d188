package tensortee

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"tensortee/internal/experiments"
	"tensortee/internal/stats"
)

// Cell is one typed table value: every cell carries its rendered text, and
// numeric cells additionally carry the raw number, so callers never parse
// strings to get at the data.
type Cell struct {
	// Text is the human-readable rendering.
	Text string
	// Number is the raw value for numeric cells (0 otherwise).
	Number float64
	// IsNumber reports whether Number is meaningful.
	IsNumber bool
}

// String returns the rendered text.
func (c Cell) String() string { return c.Text }

// MarshalJSON emits numeric cells as JSON numbers and the rest as strings.
func (c Cell) MarshalJSON() ([]byte, error) {
	if c.IsNumber {
		return json.Marshal(c.Number)
	}
	return json.Marshal(c.Text)
}

// UnmarshalJSON inverts MarshalJSON: JSON numbers become numeric cells
// (with a full-precision text rendering), strings become text cells, and
// null becomes the empty text cell (MarshalJSON never emits null, but
// decoding must not fabricate a numeric zero from it). This lets a Result
// round-trip through its own JSON, so HTTP clients of tensorteed can
// decode responses back into typed Results.
func (c *Cell) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*c = Cell{}
		return nil
	}
	var n float64
	if err := json.Unmarshal(b, &n); err == nil {
		*c = Cell{Text: strconv.FormatFloat(n, 'g', -1, 64), Number: n, IsNumber: true}
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("tensortee: cell is neither number nor string: %w", err)
	}
	*c = Cell{Text: s}
	return nil
}

// ResultTable is one table of an experiment result: named columns and
// typed rows.
type ResultTable struct {
	// Title is the table caption.
	Title string `json:"title"`
	// Columns are the header names, in display order.
	Columns []string `json:"columns"`
	// Rows are the table body; every row has one Cell per column.
	Rows [][]Cell `json:"rows"`
}

// Column returns the index of the named column, or -1.
func (t *ResultTable) Column(name string) int {
	for i, c := range t.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// Result is one experiment's typed outcome: the tables and headline
// scalars the paper reports, plus free-form notes.
type Result struct {
	// ID is the experiment id (e.g. "fig16").
	ID string `json:"id"`
	// Title describes the experiment.
	Title string `json:"title"`
	// Tables holds the typed tables in report order.
	Tables []ResultTable `json:"tables"`
	// Scalars holds named headline numbers (e.g. "avg_speedup").
	Scalars map[string]float64 `json:"scalars,omitempty"`
	// Notes carries the paper-context annotations.
	Notes []string `json:"notes,omitempty"`
	// Elapsed is the wall-clock time the experiment took to regenerate.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// newResult converts an internal report into the public typed form.
func newResult(r *experiments.Report, elapsed time.Duration) *Result {
	out := &Result{
		ID:      r.ID,
		Title:   r.Title,
		Notes:   append([]string(nil), r.Notes...),
		Elapsed: elapsed,
	}
	if len(r.Scalars) > 0 {
		out.Scalars = make(map[string]float64, len(r.Scalars))
		for k, v := range r.Scalars {
			out.Scalars[k] = v
		}
	}
	for _, tb := range r.Tables {
		rt := ResultTable{
			Title:   tb.Title,
			Columns: append([]string(nil), tb.Headers...),
		}
		for _, row := range tb.Cells {
			cells := make([]Cell, len(row))
			for j, c := range row {
				cells[j] = Cell{Text: c.Text, Number: c.Num, IsNumber: c.IsNum}
			}
			rt.Rows = append(rt.Rows, cells)
		}
		out.Tables = append(out.Tables, rt)
	}
	return out
}

// Scalar returns a named headline number.
func (r *Result) Scalar(name string) (float64, error) {
	v, ok := r.Scalars[name]
	if !ok {
		return 0, fmt.Errorf("tensortee: experiment %s has no scalar %q", r.ID, name)
	}
	return v, nil
}

// sortedScalarKeys returns the scalar names in deterministic order.
func (r *Result) sortedScalarKeys() []string {
	keys := make([]string, 0, len(r.Scalars))
	for k := range r.Scalars {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Text renders the result in the classic report layout (what the CLI
// prints). The table layout
// is stats.Table's — cells round-trip as their rendered text, so the
// output stays byte-identical to the internal Report rendering (pinned by
// TestResultTextMatchesReport).
func (r *Result) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	for _, t := range r.Tables {
		st := stats.NewTable(t.Title, t.Columns...)
		for _, row := range t.Rows {
			cells := make([]any, len(row))
			for i, c := range row {
				cells[i] = c.Text
			}
			st.AddRow(cells...)
		}
		b.WriteString(st.String())
		b.WriteByte('\n')
	}
	for _, k := range r.sortedScalarKeys() {
		fmt.Fprintf(&b, "%s = %.4g\n", k, r.Scalars[k])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// JSON renders the result as indented JSON. Numeric cells are emitted as
// JSON numbers, so downstream tooling gets typed data.
func (r *Result) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Fingerprint returns a stable hex content hash of the result's data —
// tables, scalars, notes, id and title, but not Elapsed (which varies run
// to run while the simulated numbers stay byte-identical). Two runs of the
// same experiment on the same code produce the same fingerprint, so it is
// suitable as a strong HTTP ETag and as a golden-output pin.
func (r *Result) Fingerprint() string {
	clone := *r
	clone.Elapsed = 0
	b, err := json.Marshal(&clone)
	if err != nil {
		// Result marshalling cannot fail (all fields are plain data), but
		// degrade to a distinguishable fingerprint rather than panicking.
		b = []byte("unmarshalable:" + r.ID + ":" + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// CSV renders every table as a CSV block (a "table" header line, the
// column row, then data rows — numeric cells at full precision) followed
// by one "scalar,<name>,<value>" line per headline number.
func (r *Result) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	for _, t := range r.Tables {
		_ = w.Write([]string{"table", t.Title})
		_ = w.Write(t.Columns)
		for _, row := range t.Rows {
			rec := make([]string, len(row))
			for i, c := range row {
				if c.IsNumber {
					rec[i] = strconv.FormatFloat(c.Number, 'g', -1, 64)
				} else {
					rec[i] = c.Text
				}
			}
			_ = w.Write(rec)
		}
	}
	for _, k := range r.sortedScalarKeys() {
		_ = w.Write([]string{"scalar", k, strconv.FormatFloat(r.Scalars[k], 'g', -1, 64)})
	}
	w.Flush()
	return b.String()
}

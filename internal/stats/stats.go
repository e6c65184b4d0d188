// Package stats provides the small reporting helpers the experiment
// harness uses to print paper-style tables.
package stats

import (
	"fmt"
	"strings"
)

// Cell is one table value: the rendered text plus, for numeric cells, the
// raw number AddRow received — so consumers (the public Result API, JSON
// and CSV renderers) get typed data instead of re-parsing strings.
type Cell struct {
	Text  string
	Num   float64
	IsNum bool
}

// Table is a simple column-aligned text table of typed cells.
type Table struct {
	Title   string
	Headers []string
	// Cells holds the typed values of every row.
	Cells [][]Cell
}

// NewTable creates a table with the given headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v and numeric values
// additionally keep their raw number.
func (t *Table) AddRow(cells ...any) {
	typed := make([]Cell, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			typed[i] = Cell{Text: fmtFloat(v), Num: v, IsNum: true}
		case float32:
			typed[i] = Cell{Text: fmtFloat(float64(v)), Num: float64(v), IsNum: true}
		case int:
			typed[i] = Cell{Text: fmt.Sprint(v), Num: float64(v), IsNum: true}
		case int64:
			typed[i] = Cell{Text: fmt.Sprint(v), Num: float64(v), IsNum: true}
		case uint64:
			typed[i] = Cell{Text: fmt.Sprint(v), Num: float64(v), IsNum: true}
		case string:
			typed[i] = Cell{Text: v}
		default:
			typed[i] = Cell{Text: fmt.Sprint(c)}
		}
	}
	t.Cells = append(t.Cells, typed)
}

func fmtFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	case v >= 0.01:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.2e", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Cells {
		for i, c := range r {
			if i < len(widths) && len(c.Text) > widths[i] {
				widths[i] = len(c.Text)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			// Ragged rows can carry more cells than there are headers;
			// render the extras unpadded instead of indexing past widths.
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s", w, c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Cells {
		row := make([]string, len(r))
		for i, c := range r {
			row[i] = c.Text
		}
		writeRow(row)
	}
	return b.String()
}

// Mean returns the arithmetic mean.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

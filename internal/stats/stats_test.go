package stats

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("beta", 42)
	out := tb.String()
	if !strings.Contains(out, "## demo") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1.500") {
		t.Errorf("row formatting wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("rendered %d lines:\n%s", len(lines), out)
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("x")
	if strings.Contains(tb.String(), "##") {
		t.Error("empty title rendered")
	}
}

func TestFloatFormatting(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		12345:   "12345",
		42.42:   "42.4",
		0.123:   "0.123",
		0.00001: "1.00e-05",
	}
	for v, want := range cases {
		if got := fmtFloat(v); got != want {
			t.Errorf("fmtFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestMeanMedian(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("empty mean should be 0")
	}
}

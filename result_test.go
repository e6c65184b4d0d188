package tensortee

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"tensortee/internal/experiments"
)

func runResult(t *testing.T, id string) *Result {
	t.Helper()
	res, err := NewRunner().Run(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResultTextMatchesReport pins renderer fidelity: the typed Result's
// Text() must reproduce the internal Report.String() exactly, so the CLI
// output is unchanged by the API redesign.
func TestResultTextMatchesReport(t *testing.T) {
	for _, id := range []string{"tab1", "tab2", "fig4", "hw"} {
		rep, err := experiments.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		res := runResult(t, id)
		if res.Text() != rep.String() {
			t.Errorf("%s: Text() diverged from Report.String():\n--- typed ---\n%s\n--- report ---\n%s",
				id, res.Text(), rep.String())
		}
	}
}

func TestResultTypedCells(t *testing.T) {
	res := runResult(t, "tab2")
	if !strings.Contains(res.Text(), "GPT2-M") {
		t.Error("tab2 text missing models")
	}
	tb := res.Tables[0]
	if got := tb.Column("batch size"); got < 0 {
		t.Fatalf("missing 'batch size' column in %v", tb.Columns)
	}
	bs := tb.Column("batch size")
	model := tb.Column("model")
	for _, row := range tb.Rows {
		if !row[bs].IsNumber || row[bs].Number <= 0 {
			t.Errorf("batch size cell %+v not numeric", row[bs])
		}
		if row[model].IsNumber {
			t.Errorf("model name cell %+v unexpectedly numeric", row[model])
		}
	}
	if tb.Column("no-such-column") != -1 {
		t.Error("unknown column not reported as -1")
	}
}

func TestResultJSON(t *testing.T) {
	res := runResult(t, "tab2")
	raw, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		ID     string `json:"id"`
		Tables []struct {
			Columns []string            `json:"columns"`
			Rows    [][]json.RawMessage `json:"rows"`
		} `json:"tables"`
		Scalars map[string]float64 `json:"scalars"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if decoded.ID != "tab2" || decoded.Scalars["models"] != 12 {
		t.Errorf("decoded = %+v", decoded)
	}
	// Numeric cells are JSON numbers (unquoted), strings are quoted.
	row := decoded.Tables[0].Rows[0]
	if row[0][0] != '"' {
		t.Errorf("model cell should be a JSON string, got %s", row[0])
	}
	sawNumber := false
	for _, cell := range row[1:] {
		if cell[0] != '"' {
			sawNumber = true
		}
	}
	if !sawNumber {
		t.Error("no numeric JSON cells in a numeric table")
	}
}

func TestCellJSONRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want Cell
	}{
		{`3.5`, Cell{Text: "3.5", Number: 3.5, IsNumber: true}},
		{`"GPT2-M"`, Cell{Text: "GPT2-M"}},
		{`null`, Cell{}}, // foreign input: must not fabricate a numeric 0
	}
	for _, tc := range cases {
		var c Cell
		if err := json.Unmarshal([]byte(tc.in), &c); err != nil {
			t.Errorf("unmarshal %s: %v", tc.in, err)
			continue
		}
		if c != tc.want {
			t.Errorf("unmarshal %s = %+v, want %+v", tc.in, c, tc.want)
		}
	}
	var c Cell
	if err := json.Unmarshal([]byte(`true`), &c); err == nil {
		t.Error("bool accepted as a cell")
	}
	// Marshal → Unmarshal round-trips both cell kinds.
	for _, orig := range []Cell{{Text: "x"}, {Text: "2", Number: 2, IsNumber: true}} {
		raw, err := json.Marshal(orig)
		if err != nil {
			t.Fatal(err)
		}
		var back Cell
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if back != orig {
			t.Errorf("round-trip %+v -> %+v", orig, back)
		}
	}
}

func TestResultCSV(t *testing.T) {
	res := runResult(t, "hw")
	csvOut := res.CSV()
	if !strings.Contains(csvOut, "table,on-chip storage") {
		t.Errorf("CSV missing table header:\n%s", csvOut)
	}
	if !strings.Contains(csvOut, "component,bytes") {
		t.Errorf("CSV missing column row:\n%s", csvOut)
	}
	if !strings.Contains(csvOut, "scalar,total_kb,") {
		t.Errorf("CSV missing scalar line:\n%s", csvOut)
	}
}

func TestResultScalar(t *testing.T) {
	res := runResult(t, "hw")
	if v, err := res.Scalar("total_kb"); err != nil || v < 18 || v > 30 {
		t.Errorf("total_kb = %g, %v", v, err)
	}
	if _, err := res.Scalar("nope"); err == nil {
		t.Error("unknown scalar accepted")
	}
}

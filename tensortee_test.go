package tensortee

import (
	"testing"
)

func TestModelNames(t *testing.T) {
	names := ModelNames()
	if len(names) != 12 {
		t.Fatalf("models = %d, want 12", len(names))
	}
	if names[0] != "GPT" || names[len(names)-1] != "OPT-6.7B" {
		t.Error("model order wrong")
	}
}

func TestModelInfo(t *testing.T) {
	m, err := Model("GPT2-M")
	if err != nil {
		t.Fatal(err)
	}
	if m.BatchSize != 22 || m.Layers != 24 || m.Hidden != 1024 {
		t.Errorf("GPT2-M info = %+v", m)
	}
	if m.Params < 300e6 || m.Params > 450e6 {
		t.Errorf("GPT2-M params = %d", m.Params)
	}
	if _, err := Model("bogus"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestExperimentIDs(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 14 {
		t.Errorf("experiments = %d, want >= 14", len(ids))
	}
}

func TestSystemTrainStep(t *testing.T) {
	if testing.Short() {
		t.Skip("system calibration")
	}
	sys, err := NewSystem(TensorTEE)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.TrainStep("GPT")
	if err != nil {
		t.Fatal(err)
	}
	if b.Total <= 0 || b.NPU <= 0 || b.CPU <= 0 {
		t.Errorf("breakdown = %+v", b)
	}
	if b.Total != b.NPU+b.CPU+b.CommWeights+b.CommGrads {
		t.Error("breakdown does not sum")
	}
	if _, err := sys.TrainStep("bogus"); err == nil {
		t.Error("unknown model accepted")
	}
	if sys.Describe() == "" {
		t.Error("empty description")
	}
}

func TestKindString(t *testing.T) {
	if NonSecure.String() != "Non-Secure" || BaselineSGXMGX.String() != "SGX+MGX" || TensorTEE.String() != "TensorTEE" {
		t.Error("kind strings wrong")
	}
}

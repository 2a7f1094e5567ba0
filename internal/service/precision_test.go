package service

import (
	"strings"
	"testing"

	"djinn/internal/nn"
	"djinn/internal/tensor"
	"djinn/internal/testutil"
)

// TestRegisterPrecisionServes: an app registered at int8 answers
// queries through the full batching path, close to the float32 pool,
// and the control verb reports each app's compiled precision.
func TestRegisterPrecisionServes(t *testing.T) {
	testutil.NoLeaks(t)
	s := NewServer()
	s.SetLogger(silence)
	cfg := AppConfig{BatchInstances: 4, Workers: 1}
	if err := s.Register("f32", testNet(3), cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Precision = nn.Int8
	if err := s.Register(nn.Int8.String(), testNet(3), cfg); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	in := make([]float32, 8)
	tensor.NewRNG(9).FillUniform(in, -1, 1)
	ref, err := s.Infer("f32", in)
	if err != nil {
		t.Fatal(err)
	}
	quant, err := s.Infer(nn.Int8.String(), in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if d := float64(quant[i] - ref[i]); d > 0.05 || d < -0.05 {
			t.Fatalf("int8 out[%d]=%v vs float32 %v: quantization error too large", i, quant[i], ref[i])
		}
	}

	if out, err := s.control("precision int8"); err != nil || out != "int8" {
		t.Fatalf("precision int8 = %q, %v", out, err)
	}
	out, err := s.control("precision")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"f32 float32", "int8 int8"} {
		if !strings.Contains(out, want) {
			t.Fatalf("precision listing missing %q:\n%s", want, out)
		}
	}
	if _, err := s.control("precision nosuch"); err == nil {
		t.Fatal("precision verb accepted unknown app")
	}
}

// TestRegisterPrecisionRejectsOversizedReduction: a net whose FC fan-in
// exceeds the int8 kernel's accumulator bound must fail Register with an
// error, not panic the server at compile time.
func TestRegisterPrecisionRejectsOversizedReduction(t *testing.T) {
	wide := tensor.MaxQuantK + 1
	n := nn.NewNet("wide", nn.KindDNN, wide)
	n.Add(nn.NewFC("fc", tensor.NewRNG(1), wide, 2)).Add(nn.NewSoftmax("prob"))
	s := NewServer()
	s.SetLogger(silence)
	defer s.Close()
	err := s.Register("wide", n, AppConfig{Precision: nn.Int8, Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "int8 kernel bound") {
		t.Fatalf("Register accepted oversized int8 reduction (err=%v)", err)
	}
	if err := s.Register("wide", n, AppConfig{Workers: 1, BatchInstances: 1}); err != nil {
		t.Fatalf("float32 registration of the same net should work: %v", err)
	}
}

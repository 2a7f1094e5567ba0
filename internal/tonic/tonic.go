// Package tonic implements the Tonic Suite (Section 3.2): seven
// end-to-end applications — IMC, DIG, FACE, ASR, POS, CHK, NER — each
// with its real pre-processing (image scaling, MFCC-style feature
// extraction, tokenisation and embedding) and post-processing (argmax
// classification, Viterbi decoding, tag-sequence search), with the DNN
// inference delegated to a DjiNN service backend (remote over TCP or
// in-process).
package tonic

import (
	"fmt"
	"sort"

	"djinn/internal/models"
	"djinn/internal/nn"
	"djinn/internal/service"
	"djinn/internal/workload"
)

// ServiceName returns the DjiNN registry name for an application.
func ServiceName(a models.App) string {
	switch a {
	case models.IMC:
		return "imc"
	case models.DIG:
		return "dig"
	case models.FACE:
		return "face"
	case models.ASR:
		return "asr"
	case models.POS:
		return "pos"
	case models.CHK:
		return "chk"
	case models.NER:
		return "ner"
	}
	panic("tonic: unknown app")
}

// Register adds one application's network to a DjiNN server with the
// Table 3 batch size (in DNN input instances).
func Register(s *service.Server, a models.App) error {
	return RegisterPrecision(s, a, nn.Float32)
}

// RegisterPrecision is Register with an explicit kernel precision: the
// app's whole plan pool compiles against the selected backend
// (reference float32 or quantized int8).
func RegisterPrecision(s *service.Server, a models.App, prec nn.Precision) error {
	spec := workload.Get(a)
	return s.Register(ServiceName(a), models.BuildCached(a), service.AppConfig{
		BatchInstances: spec.BatchSize * spec.Instances,
		Workers:        4,
		Precision:      prec,
	})
}

// RegisterAll registers every Tonic application. The full model set is
// ~850 MB of weights (Table 1), matching DjiNN's resident-model design.
func RegisterAll(s *service.Server) error {
	return RegisterAllPrecision(s, nn.Float32)
}

// RegisterAllPrecision registers every Tonic application at one kernel
// precision.
func RegisterAllPrecision(s *service.Server, prec nn.Precision) error {
	for _, a := range models.Apps {
		if err := RegisterPrecision(s, a, prec); err != nil {
			return err
		}
	}
	return nil
}

// Prediction is a classification result.
type Prediction struct {
	Class int
	Label string
	Prob  float32
}

// String renders the prediction.
func (p Prediction) String() string {
	return fmt.Sprintf("%s (%.1f%%)", p.Label, p.Prob*100)
}

// argmaxPrediction extracts the top class of one probability vector.
func argmaxPrediction(probs []float32, label func(int) string) Prediction {
	best := 0
	for i, v := range probs {
		if v > probs[best] {
			best = i
		}
	}
	return Prediction{Class: best, Label: label(best), Prob: probs[best]}
}

// topK returns the k most probable classes, descending.
func topK(probs []float32, k int, label func(int) string) []Prediction {
	if k > len(probs) {
		k = len(probs)
	}
	idx := make([]int, len(probs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return probs[idx[a]] > probs[idx[b]] })
	out := make([]Prediction, k)
	for i := 0; i < k; i++ {
		c := idx[i]
		out[i] = Prediction{Class: c, Label: label(c), Prob: probs[c]}
	}
	return out
}

// ImageNetLabel returns the class label for the IMC application. The
// original service maps to the 1000 ImageNet synsets; without the
// synset list this reproduction uses stable synthetic names.
func ImageNetLabel(class int) string { return fmt.Sprintf("synset-%04d", class) }

// FaceLabel returns the identity label for the FACE application's 83
// PubFig83+LFW celebrity classes.
func FaceLabel(class int) string { return fmt.Sprintf("celebrity-%02d", class) }

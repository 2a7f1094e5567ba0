package tonic

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"djinn/internal/dsp"
	"djinn/internal/lang"
	"djinn/internal/models"
	"djinn/internal/service"
	"djinn/internal/tensor"
	"djinn/internal/workload"
)

var (
	srvOnce sync.Once
	srv     *service.Server
)

// lightServer hosts the cheap apps (NLP + DIG) in-process; the heavy
// CNN/DNN apps get their own tests guarded by -short.
func lightServer(t *testing.T) *service.Server {
	t.Helper()
	srvOnce.Do(func() {
		srv = service.NewServer()
		srv.SetLogger(func(string, ...any) {})
		for _, a := range []models.App{models.DIG, models.POS, models.CHK, models.NER} {
			if err := Register(srv, a); err != nil {
				panic(err)
			}
		}
	})
	return srv
}

func TestServiceNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range models.Apps {
		n := ServiceName(a)
		if seen[n] {
			t.Fatalf("duplicate service name %q", n)
		}
		seen[n] = true
	}
}

func TestDIGEndToEnd(t *testing.T) {
	s := lightServer(t)
	app := NewDIG(s)
	rng := tensor.NewRNG(1)
	imgs, _ := workload.Digits(rng, 10)
	preds, err := app.Recognize(imgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 10 {
		t.Fatalf("%d predictions, want 10", len(preds))
	}
	for i, p := range preds {
		if p.Class < 0 || p.Class > 9 || p.Prob <= 0 || p.Prob > 1 {
			t.Fatalf("prediction %d malformed: %+v", i, p)
		}
	}
}

func TestDIGRejectsWrongSize(t *testing.T) {
	app := NewDIG(lightServer(t))
	if _, err := app.Recognize([][]float32{make([]float32, 10)}); err == nil {
		t.Fatal("expected error for wrong pixel count")
	}
}

func TestDIGDeterministic(t *testing.T) {
	app := NewDIG(lightServer(t))
	img := workload.Digit(tensor.NewRNG(2), 5)
	a, err := app.Recognize([][]float32{img})
	if err != nil {
		t.Fatal(err)
	}
	b, err := app.Recognize([][]float32{img})
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Class != b[0].Class || a[0].Prob != b[0].Prob {
		t.Fatal("same input produced different predictions")
	}
}

func TestPOSEndToEnd(t *testing.T) {
	app := NewPOS(lightServer(t))
	tagged, err := app.Tag("The quick brown fox jumps over the lazy dog .")
	if err != nil {
		t.Fatal(err)
	}
	if len(tagged) != 10 {
		t.Fatalf("%d tagged words, want 10", len(tagged))
	}
	valid := map[string]bool{}
	for _, tg := range lang.POSTags {
		valid[tg] = true
	}
	for _, tw := range tagged {
		if !valid[tw.Tag] {
			t.Fatalf("invalid tag %q", tw.Tag)
		}
	}
}

func TestCHKUsesInternalPOSAndIsIOBConsistent(t *testing.T) {
	s := lightServer(t)
	app := NewCHK(s)
	before, _ := s.StatsFor(ServiceName(models.POS))
	tagged, err := app.Chunk("Google builds a new system in Michigan")
	if err != nil {
		t.Fatal(err)
	}
	after, _ := s.StatsFor(ServiceName(models.POS))
	if after.Queries <= before.Queries {
		t.Fatal("CHK did not issue an internal POS request")
	}
	// IOB2 validity: I-X must follow B-X or I-X of the same kind.
	prev := "O"
	for _, tw := range tagged {
		if strings.HasPrefix(tw.Tag, "I-") {
			kind := tw.Tag[2:]
			if prev != "B-"+kind && prev != "I-"+kind {
				t.Fatalf("illegal chunk sequence %s -> %s", prev, tw.Tag)
			}
		}
		prev = tw.Tag
	}
}

func TestNEREndToEndIOBConsistent(t *testing.T) {
	app := NewNER(lightServer(t))
	tagged, err := app.Recognize("Obama met Einstein in Paris near the Google office")
	if err != nil {
		t.Fatal(err)
	}
	prev := "O"
	for _, tw := range tagged {
		if strings.HasPrefix(tw.Tag, "I-") {
			kind := tw.Tag[2:]
			if prev != "B-"+kind && prev != "I-"+kind {
				t.Fatalf("illegal entity sequence %s -> %s", prev, tw.Tag)
			}
		}
		prev = tw.Tag
	}
}

func TestNLPEmptySentence(t *testing.T) {
	app := NewPOS(lightServer(t))
	tagged, err := app.Tag("")
	if err != nil || len(tagged) != 0 {
		t.Fatalf("empty sentence should be a no-op, got %v, %v", tagged, err)
	}
}

func TestToTensorShapeAndRange(t *testing.T) {
	rng := tensor.NewRNG(3)
	img := workload.Image(rng, 640, 480)
	out := ToTensor(img, 227, 227, imageMean)
	if len(out) != 3*227*227 {
		t.Fatalf("len %d", len(out))
	}
	for _, v := range out {
		if v < -1.01 || v > 1.01 || math.IsNaN(float64(v)) {
			t.Fatalf("pixel value %v out of range", v)
		}
	}
}

func TestToTensorUniformImage(t *testing.T) {
	img := image.NewRGBA(image.Rect(0, 0, 64, 64))
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			img.Set(x, y, color.RGBA{R: 128, G: 128, B: 128, A: 255})
		}
	}
	out := ToTensor(img, 8, 8, [3]float32{0, 0, 0})
	for _, v := range out {
		if math.Abs(float64(v)-128.0/255) > 0.01 {
			t.Fatalf("uniform image resampled to %v", v)
		}
	}
}

func TestCenterSquare(t *testing.T) {
	img := image.NewRGBA(image.Rect(0, 0, 100, 60))
	sq := centerSquare(img)
	b := sq.Bounds()
	if b.Dx() != 60 || b.Dy() != 60 || b.Min.X != 20 {
		t.Fatalf("bad crop %v", b)
	}
}

// TestCenterSquareSamplesTheCrop resamples the centre crop of an image
// whose left half is black and right half red: the crop straddles the
// seam at its middle, so the left half of the output must be black and
// the right half red.
func TestCenterSquareSamplesTheCrop(t *testing.T) {
	img := image.NewRGBA(image.Rect(0, 0, 640, 480))
	for y := 0; y < 480; y++ {
		for x := 320; x < 640; x++ {
			img.Set(x, y, color.RGBA{R: 255, A: 255})
		}
	}
	out := ToTensor(centerSquare(img), 8, 8, [3]float32{})
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			want := float32(0)
			if x >= 4 {
				want = 1
			}
			if got := out[y*8+x]; got != want {
				t.Fatalf("output (%d,%d) red %v, want %v", x, y, got, want)
			}
		}
	}
}

// opaque hides an image's concrete type, so ToTensor reads it through At.
type opaque struct{ image.Image }

// TestToTensorFastPathMatchesAt: reading RGBA and NRGBA pixels straight
// from Pix must give the same float32 bits as the color.Color path, on
// whole images, sub-images and centre crops.
func TestToTensorFastPathMatchesAt(t *testing.T) {
	rng := tensor.NewRNG(6)
	rgba := workload.Image(rng, 97, 61).(*image.RGBA)
	nrgba := image.NewNRGBA(image.Rect(0, 0, 97, 61))
	for i := range nrgba.Pix {
		nrgba.Pix[i] = uint8(rng.Intn(256))
	}
	cases := map[string]image.Image{
		"rgba":      rgba,
		"nrgba":     nrgba,
		"rgba-sub":  rgba.SubImage(image.Rect(13, 7, 80, 50)),
		"nrgba-sub": nrgba.SubImage(image.Rect(13, 7, 80, 50)),
	}
	for name, img := range cases {
		check := func(what string, fast, slow image.Image) {
			got, want := ToTensor(fast, 31, 23, imageMean), ToTensor(slow, 31, 23, imageMean)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s %s: out[%d]=%v, At path %v", name, what, i, got[i], want[i])
				}
			}
		}
		check("whole", img, opaque{img})
		check("crop", centerSquare(img), centerSquare(opaque{img}))
	}
}

func TestToTensorAllocations(t *testing.T) {
	img := workload.Image(tensor.NewRNG(7), 640, 480)
	if allocs := testing.AllocsPerRun(3, func() { ToTensor(img, 227, 227, imageMean) }); allocs > 2 {
		t.Fatalf("%.0f allocations per 640×480 → 227² resize, want ≤ 2", allocs)
	}
}

func TestDecodePhonesCollapsesRuns(t *testing.T) {
	// Build posteriors strongly favouring phone 5 for 10 frames then
	// phone 7 for 10 frames: decode must yield exactly those two.
	frames, senones := 20, models.ASRSenones
	post := make([]float32, frames*senones)
	for t2 := 0; t2 < frames; t2++ {
		phone := 5
		if t2 >= 10 {
			phone = 7
		}
		for s := 0; s < senones; s++ {
			if s%NumPhones == phone {
				post[t2*senones+s] = 1.0 / float32(senones/NumPhones)
			} else {
				post[t2*senones+s] = 1e-6
			}
		}
	}
	phones := decodePhones(post, frames, senones)
	if len(phones) != 2 || phones[0] != Phones[5] || phones[1] != Phones[7] {
		t.Fatalf("decoded %v, want [%s %s]", phones, Phones[5], Phones[7])
	}
}

func TestDecodePhonesDropsSilence(t *testing.T) {
	frames, senones := 6, models.ASRSenones
	post := make([]float32, frames*senones)
	sil := len(Phones) - 1
	for t2 := 0; t2 < frames; t2++ {
		for s := 0; s < senones; s++ {
			if s%NumPhones == sil {
				post[t2*senones+s] = 0.1
			}
		}
	}
	if got := decodePhones(post, frames, senones); len(got) != 0 {
		t.Fatalf("silence decoded as %v", got)
	}
}

func TestPhonesToText(t *testing.T) {
	got := phonesToText([]string{"hh", "eh", "l", "ow", "w"})
	if got != "hhehl oww" {
		t.Fatalf("got %q", got)
	}
	if phonesToText(nil) != "" {
		t.Fatal("empty phones should give empty text")
	}
}

func TestASREndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("31M-parameter acoustic model in -short mode")
	}
	s := service.NewServer()
	s.SetLogger(func(string, ...any) {})
	defer s.Close()
	if err := Register(s, models.ASR); err != nil {
		t.Fatal(err)
	}
	app := NewASR(s)
	rng := tensor.NewRNG(4)
	// Half a second of audio keeps the pure-Go forward pass quick.
	signal := workload.Utterance(rng, 0.5)
	tr, err := app.Transcribe(signal)
	if err != nil {
		t.Fatal(err)
	}
	wantFrames := 1 + (len(signal)-dsp.FrameLength)/dsp.FrameShift
	if tr.Frames != wantFrames {
		t.Fatalf("decoded %d frames, want %d", tr.Frames, wantFrames)
	}
	if tr.Text == "" || len(tr.Phones) == 0 {
		t.Fatalf("empty transcription: %+v", tr)
	}
}

func TestIMCAndFACEEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("AlexNet/DeepFace forward passes in -short mode")
	}
	s := service.NewServer()
	s.SetLogger(func(string, ...any) {})
	defer s.Close()
	for _, a := range []models.App{models.IMC, models.FACE} {
		if err := Register(s, a); err != nil {
			t.Fatal(err)
		}
	}
	rng := tensor.NewRNG(5)
	img := workload.Image(rng, 480, 360)

	imc := NewIMC(s)
	p, err := imc.Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	if p.Class < 0 || p.Class >= 1000 || p.Prob <= 0 {
		t.Fatalf("IMC prediction malformed: %+v", p)
	}
	if !strings.HasPrefix(p.Label, "synset-") {
		t.Fatalf("IMC label %q", p.Label)
	}

	face := NewFACE(s)
	fp, err := face.Identify(img)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Class < 0 || fp.Class >= models.FaceClasses {
		t.Fatalf("FACE class %d outside the 83 identities", fp.Class)
	}
}

func TestOverTCPMatchesInProcess(t *testing.T) {
	s := lightServer(t)
	// Serve the shared server over a real socket.
	ln, err := newLocalListener()
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	time.Sleep(10 * time.Millisecond)
	c, err := service.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sentence := workload.Sentence(tensor.NewRNG(6), workload.SentenceWords)
	local, err := NewPOS(s).Tag(sentence)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := NewPOS(c).Tag(sentence)
	if err != nil {
		t.Fatal(err)
	}
	if len(local) != len(remote) {
		t.Fatal("length mismatch")
	}
	for i := range local {
		if local[i] != remote[i] {
			t.Fatalf("word %d: %v over TCP vs %v in-process", i, remote[i], local[i])
		}
	}
}

func TestTopK(t *testing.T) {
	probs := []float32{0.1, 0.5, 0.2, 0.15, 0.05}
	preds := topK(probs, 3, func(c int) string { return fmt.Sprintf("c%d", c) })
	if len(preds) != 3 {
		t.Fatalf("%d predictions", len(preds))
	}
	if preds[0].Class != 1 || preds[1].Class != 2 || preds[2].Class != 3 {
		t.Fatalf("order wrong: %v", preds)
	}
	if preds[0].Prob < preds[1].Prob || preds[1].Prob < preds[2].Prob {
		t.Fatal("probabilities not descending")
	}
	// k larger than the class count clamps.
	if got := topK(probs, 99, func(int) string { return "" }); len(got) != 5 {
		t.Fatalf("clamped top-k returned %d", len(got))
	}
}

func TestClassifyPNGRejectsGarbage(t *testing.T) {
	app := NewIMC(lightServer(t))
	if _, err := app.ClassifyPNG(strings.NewReader("not a png")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestClassifyPNGAndTopK(t *testing.T) {
	if testing.Short() {
		t.Skip("AlexNet forward passes in -short mode")
	}
	s := service.NewServer()
	s.SetLogger(func(string, ...any) {})
	defer s.Close()
	if err := Register(s, models.IMC); err != nil {
		t.Fatal(err)
	}
	app := NewIMC(s)
	var buf bytes.Buffer
	if err := png.Encode(&buf, workload.Image(tensor.NewRNG(9), 64, 64)); err != nil {
		t.Fatal(err)
	}
	pred, err := app.ClassifyPNG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	top, err := app.ClassifyTopK(workload.Image(tensor.NewRNG(9), 64, 64), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("%d top-k predictions", len(top))
	}
	if top[0].Class != pred.Class {
		t.Fatalf("top-1 of top-k (%d) disagrees with Classify (%d)", top[0].Class, pred.Class)
	}
	for i := 1; i < len(top); i++ {
		if top[i].Prob > top[i-1].Prob {
			t.Fatal("top-k not sorted")
		}
	}
}

func TestTranscriptionUsesLexicon(t *testing.T) {
	// Feed the decoder posteriors that spell "yes" through the senone
	// collapse and check the words come out of the lexicon path.
	a := &ASR{lexicon: DefaultLexicon(), beam: 24}
	idx := map[string]int{}
	for i, p := range Phones {
		idx[p] = i
	}
	frames := 0
	senones := models.ASRSenones
	var post []float32
	for _, ph := range []string{"y", "eh", "s"} {
		for f := 0; f < 5; f++ {
			frame := make([]float32, senones)
			for s := 0; s < senones; s++ {
				if s%NumPhones == idx[ph] {
					frame[s] = 1.0 / float32(senones/NumPhones)
				} else {
					frame[s] = 1e-6
				}
			}
			post = append(post, frame...)
			frames++
		}
	}
	ll := phoneLogLikelihoods(post, frames, senones)
	words := a.lexicon.Decode(ll, a.beam)
	if len(words) != 1 || words[0] != "yes" {
		t.Fatalf("decoded %v, want [yes]", words)
	}
}

package tonic

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"

	"djinn/internal/models"
	"djinn/internal/service"
)

// imageMean is the per-channel training-set mean subtracted during
// preprocessing (the ImageNet BGR mean Caffe uses, rescaled to [0,1]).
var imageMean = [3]float32{0.407, 0.458, 0.485}

// ToTensor bilinearly resizes an image to w×h and lays it out as CHW
// float32 planes with mean subtraction — Caffe's image preprocessing.
func ToTensor(img image.Image, w, h int, mean [3]float32) []float32 {
	b := img.Bounds()
	src := newPixels(img)
	out := make([]float32, 3*w*h)
	sw := float64(b.Dx()) / float64(w)
	sh := float64(b.Dy()) / float64(h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			// Bilinear sample at the source-space centre of this pixel.
			fx := (float64(x)+0.5)*sw - 0.5 + float64(b.Min.X)
			fy := (float64(y)+0.5)*sh - 0.5 + float64(b.Min.Y)
			r, g, bl := bilinear(&src, b, fx, fy)
			out[0*w*h+y*w+x] = r - mean[0]
			out[1*w*h+y*w+x] = g - mean[1]
			out[2*w*h+y*w+x] = bl - mean[2]
		}
	}
	return out
}

// bilinear samples src at the absolute source coordinate (fx, fy),
// clamping taps into bounds.
func bilinear(src *pixels, bounds image.Rectangle, fx, fy float64) (r, g, b float32) {
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	x0 := clamp(int(fx), bounds.Min.X, bounds.Max.X-1)
	y0 := clamp(int(fy), bounds.Min.Y, bounds.Max.Y-1)
	x1 := clamp(x0+1, bounds.Min.X, bounds.Max.X-1)
	y1 := clamp(y0+1, bounds.Min.Y, bounds.Max.Y-1)
	dx := float32(fx - float64(x0))
	dy := float32(fy - float64(y0))
	if dx < 0 {
		dx = 0
	}
	if dy < 0 {
		dy = 0
	}
	r00, g00, b00 := src.at(x0, y0)
	r10, g10, b10 := src.at(x1, y0)
	r01, g01, b01 := src.at(x0, y1)
	r11, g11, b11 := src.at(x1, y1)
	lerp := func(a, b, t float32) float32 { return a + (b-a)*t }
	r = lerp(lerp(r00, r10, dx), lerp(r01, r11, dx), dy)
	g = lerp(lerp(g00, g10, dx), lerp(g01, g11, dx), dy)
	b = lerp(lerp(b00, b10, dx), lerp(b01, b11, dx), dy)
	return r, g, b
}

// pixels reads an image's colour channels as RGBA()'s premultiplied
// 16-bit values scaled to [0,1]. The 8-bit types the standard decoders
// produce are read straight from Pix; any other image goes through At,
// which boxes a color.Color per call.
type pixels struct {
	img    image.Image
	pix    []uint8 // nil: read through img.At
	stride int
	origin image.Point // the coordinate of pix[0]
	nrgba  bool        // pix is non-premultiplied
}

func newPixels(img image.Image) pixels {
	base := img
	if c, ok := img.(*croppedImage); ok {
		base = c.img
	}
	switch t := base.(type) {
	case *image.RGBA:
		return pixels{img: img, pix: t.Pix, stride: t.Stride, origin: t.Rect.Min}
	case *image.NRGBA:
		return pixels{img: img, pix: t.Pix, stride: t.Stride, origin: t.Rect.Min, nrgba: true}
	}
	return pixels{img: img}
}

func (p *pixels) at(x, y int) (r, g, b float32) {
	var cr, cg, cb uint32
	if p.pix == nil {
		cr, cg, cb, _ = p.img.At(x, y).RGBA()
	} else {
		i := (y-p.origin.Y)*p.stride + (x-p.origin.X)*4
		s := p.pix[i : i+4 : i+4]
		// color.RGBA.RGBA widens v to v*0x101; color.NRGBA.RGBA then
		// premultiplies by alpha with the same integer division.
		cr, cg, cb = uint32(s[0])*0x101, uint32(s[1])*0x101, uint32(s[2])*0x101
		if p.nrgba {
			a := uint32(s[3])
			cr, cg, cb = cr*a/0xff, cg*a/0xff, cb*a/0xff
		}
	}
	return float32(cr) / 65535, float32(cg) / 65535, float32(cb) / 65535
}

// IMC is the image-classification application (AlexNet over 1000
// classes).
type IMC struct{ backend service.Backend }

// NewIMC creates the application over a DjiNN backend.
func NewIMC(b service.Backend) *IMC { return &IMC{backend: b} }

// Classify preprocesses one image (resize to 227×227, mean
// subtraction), queries the service, and returns the top prediction.
func (a *IMC) Classify(img image.Image) (Prediction, error) {
	in := ToTensor(img, 227, 227, imageMean)
	out, err := a.backend.Infer(ServiceName(models.IMC), in)
	if err != nil {
		return Prediction{}, err
	}
	return argmaxPrediction(out, ImageNetLabel), nil
}

// DIG is the digit-recognition application (MNIST). One service query
// carries 100 digit images (Table 3).
type DIG struct{ backend service.Backend }

// NewDIG creates the application over a DjiNN backend.
func NewDIG(b service.Backend) *DIG { return &DIG{backend: b} }

// Recognize classifies a batch of 28×28 greyscale digit images given
// as [0,1] intensity arrays.
func (a *DIG) Recognize(digits [][]float32) ([]Prediction, error) {
	const px = 28 * 28
	in := make([]float32, 0, len(digits)*px)
	for i, d := range digits {
		if len(d) != px {
			return nil, fmt.Errorf("tonic: digit %d has %d pixels, want %d", i, len(d), px)
		}
		in = append(in, d...)
	}
	out, err := a.backend.Infer(ServiceName(models.DIG), in)
	if err != nil {
		return nil, err
	}
	preds := make([]Prediction, len(digits))
	for i := range digits {
		preds[i] = argmaxPrediction(out[i*10:(i+1)*10], func(c int) string {
			return fmt.Sprintf("%d", c)
		})
	}
	return preds, nil
}

// FACE is the facial-recognition application (DeepFace over the 83
// PubFig83+LFW identities).
type FACE struct{ backend service.Backend }

// NewFACE creates the application over a DjiNN backend.
func NewFACE(b service.Backend) *FACE { return &FACE{backend: b} }

// Identify aligns a face image (centre crop to square, resize to
// 152×152 — the 2-D alignment stage of the DeepFace pipeline) and
// predicts the identity among the 83 celebrity classes (the classifier
// layer is DeepFace's 4030-way layer; FACE reads its first 83 outputs,
// see models.FaceClasses).
func (a *FACE) Identify(img image.Image) (Prediction, error) {
	in := ToTensor(centerSquare(img), 152, 152, imageMean)
	out, err := a.backend.Infer(ServiceName(models.FACE), in)
	if err != nil {
		return Prediction{}, err
	}
	return argmaxPrediction(out[:models.FaceClasses], FaceLabel), nil
}

// centerSquare crops the largest centred square from an image.
func centerSquare(img image.Image) image.Image {
	b := img.Bounds()
	side := b.Dx()
	if b.Dy() < side {
		side = b.Dy()
	}
	x0 := b.Min.X + (b.Dx()-side)/2
	y0 := b.Min.Y + (b.Dy()-side)/2
	return &croppedImage{img: img, rect: image.Rect(x0, y0, x0+side, y0+side)}
}

type croppedImage struct {
	img  image.Image
	rect image.Rectangle
}

func (c *croppedImage) Bounds() image.Rectangle { return c.rect }
func (c *croppedImage) ColorModel() color.Model { return c.img.ColorModel() }
func (c *croppedImage) At(x, y int) color.Color { return c.img.At(x, y) }

// ClassifyTopK returns the k most probable ImageNet classes for an
// image, descending by probability.
func (a *IMC) ClassifyTopK(img image.Image, k int) ([]Prediction, error) {
	in := ToTensor(img, 227, 227, imageMean)
	out, err := a.backend.Infer(ServiceName(models.IMC), in)
	if err != nil {
		return nil, err
	}
	return topK(out, k, ImageNetLabel), nil
}

// ClassifyPNG decodes a PNG image and classifies it.
func (a *IMC) ClassifyPNG(r io.Reader) (Prediction, error) {
	img, err := png.Decode(r)
	if err != nil {
		return Prediction{}, fmt.Errorf("tonic: decoding PNG: %w", err)
	}
	return a.Classify(img)
}

package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling
// operation over a single image plane.
type ConvGeom struct {
	Channels      int // input channels
	Height, Width int // input spatial size
	KernelH       int
	KernelW       int
	StrideH       int
	StrideW       int
	PadH          int
	PadW          int
}

// OutH returns the output height for the geometry.
func (g ConvGeom) OutH() int { return (g.Height+2*g.PadH-g.KernelH)/g.StrideH + 1 }

// OutW returns the output width for the geometry.
func (g ConvGeom) OutW() int { return (g.Width+2*g.PadW-g.KernelW)/g.StrideW + 1 }

// Im2col expands one image (channels×height×width, row-major) into a
// column matrix of shape (Channels*KernelH*KernelW) × (OutH*OutW), so a
// convolution becomes a single GEMM with the filter matrix. Out-of-image
// taps (padding) contribute zeros. col must have room for the full
// matrix.
func Im2col(g ConvGeom, img, col []float32) {
	outH, outW := g.OutH(), g.OutW()
	colIdx := 0
	for c := 0; c < g.Channels; c++ {
		chBase := c * g.Height * g.Width
		for kh := 0; kh < g.KernelH; kh++ {
			for kw := 0; kw < g.KernelW; kw++ {
				for oh := 0; oh < outH; oh++ {
					ih := oh*g.StrideH - g.PadH + kh
					if ih < 0 || ih >= g.Height {
						for ow := 0; ow < outW; ow++ {
							col[colIdx] = 0
							colIdx++
						}
						continue
					}
					rowBase := chBase + ih*g.Width
					for ow := 0; ow < outW; ow++ {
						iw := ow*g.StrideW - g.PadW + kw
						if iw < 0 || iw >= g.Width {
							col[colIdx] = 0
						} else {
							col[colIdx] = img[rowBase+iw]
						}
						colIdx++
					}
				}
			}
		}
	}
}

// Im2colPanels writes the column matrix of one image straight into the
// K×NR panel layout GemmPacked reads, so a convolution holds one column
// buffer instead of a column matrix and its packed copy. bp ends up
// exactly as Im2col followed by PackB(k, n, col, bp) leaves it, pad
// lanes zeroed, where k = Channels·KernelH·KernelW and n = OutH·OutW.
// bp must have at least PackedBLen(k, n) elements.
func Im2colPanels(g ConvGeom, img, bp []float32) {
	outW := g.OutW()
	n, k := g.OutH()*outW, g.Channels*g.KernelH*g.KernelW
	plane := g.Height * g.Width
	if len(img) < g.Channels*plane || len(bp) < PackedBLen(k, n) {
		panic(fmt.Sprintf("tensor: im2colpanels buffer too small for k=%d n=%d (len img=%d bp=%d)", k, n, len(img), len(bp)))
	}
	var ih0, iw0, off [packNR]int
	for j0 := 0; j0 < n; j0 += packNR {
		// Each lane's top-left input tap. A panel is inside when all its
		// lanes are real columns whose whole window lies in the image;
		// only panels at the border need the per-tap bounds checks below.
		inside := j0+packNR <= n
		for jj := range off {
			j := j0 + jj
			ih0[jj] = (j/outW)*g.StrideH - g.PadH
			iw0[jj] = (j%outW)*g.StrideW - g.PadW
			off[jj] = ih0[jj]*g.Width + iw0[jj]
			inside = inside && ih0[jj] >= 0 && ih0[jj]+g.KernelH <= g.Height &&
				iw0[jj] >= 0 && iw0[jj]+g.KernelW <= g.Width
		}
		dst := bp[j0*k : j0*k+k*packNR]
		t := 0
		for c := 0; c < g.Channels; c++ {
			for kh := 0; kh < g.KernelH; kh++ {
				for kw := 0; kw < g.KernelW; kw++ {
					d := dst[t : t+packNR]
					if inside {
						r := c*plane + kh*g.Width + kw
						for jj, o := range off {
							d[jj] = img[o+r]
						}
					} else {
						for jj := range d {
							ih, iw := ih0[jj]+kh, iw0[jj]+kw
							v := float32(0)
							if j0+jj < n && ih >= 0 && ih < g.Height && iw >= 0 && iw < g.Width {
								v = img[c*plane+ih*g.Width+iw]
							}
							d[jj] = v
						}
					}
					t += packNR
				}
			}
		}
	}
}

// Col2im is the adjoint of Im2col: it scatters (accumulates) a column
// matrix back into an image buffer. img must be zeroed by the caller if
// accumulation from a clean slate is desired. Used by the convolution
// backward pass.
func Col2im(g ConvGeom, col, img []float32) {
	outH, outW := g.OutH(), g.OutW()
	colIdx := 0
	for c := 0; c < g.Channels; c++ {
		chBase := c * g.Height * g.Width
		for kh := 0; kh < g.KernelH; kh++ {
			for kw := 0; kw < g.KernelW; kw++ {
				for oh := 0; oh < outH; oh++ {
					ih := oh*g.StrideH - g.PadH + kh
					if ih < 0 || ih >= g.Height {
						colIdx += outW
						continue
					}
					rowBase := chBase + ih*g.Width
					for ow := 0; ow < outW; ow++ {
						iw := ow*g.StrideW - g.PadW + kw
						if iw >= 0 && iw < g.Width {
							img[rowBase+iw] += col[colIdx]
						}
						colIdx++
					}
				}
			}
		}
	}
}

// ColSize returns the number of elements Im2col writes for geometry g.
func ColSize(g ConvGeom) int {
	return g.Channels * g.KernelH * g.KernelW * g.OutH() * g.OutW()
}

package tensor

import "fmt"

// Panel-packed GEMM backend.
//
// The reference Gemm walks B row-major inside a cache-blocked loop nest,
// which re-loads and re-stores each C row once per k step. The packed
// backend instead reorganises B once into column panels of packNR
// contiguous values per k step ("K×NR panels"), packs the active A tile
// into an L1-resident buffer, and keeps a packMR×packNR tile of C in
// registers across packKC k steps. C traffic drops from O(k) to
// O(k/packKC) loads+stores per element and every inner-loop operand is a
// sequential read. The 2×4 register tile is deliberate: 8 accumulators
// plus 6 operands fit the amd64 XMM file with no spills, which beats a
// larger tile that round-trips accumulators through the stack.
//
// Numerics: products are accumulated one at a time in ascending-k order
// per output element, exactly like the reference kernel, and partial
// sums round-trip through C between k blocks just as Gemm's cache
// blocking does. For finite inputs the result of
// GemmPacked(..., EpNone, nil) is therefore bit-identical to
// Gemm(m, n, k, 1, a, b, 0, c), and the fused epilogues are
// bit-identical to Gemm followed by the same bias add and ReLU clamp one
// element at a time. Parallel variants assign every output element to
// exactly one worker which computes it in the same ascending-k order, so
// results are bit-identical for any worker count.
const (
	// packNR is the panel width: each packed panel stores packNR
	// consecutive B columns, interleaved per k step.
	packNR = 4
	// packMR is the register tile height of the float32 microkernel.
	packMR = 2
	// packKC is the k-block length. One A tile (packMR×packKC floats)
	// and one B panel block (packKC×packNR floats) are ≤4 KiB, so both
	// sit in L1 while the microkernel runs.
	packKC = 256
)

// Epilogue selects the fused store applied to each output element as it
// leaves the microkernel's registers, replacing a separate pass over C.
type Epilogue uint8

const (
	// EpNone stores the raw accumulator: C = A·B.
	EpNone Epilogue = iota
	// EpBiasCol stores C[i,j] = acc + bias[j] (fully-connected bias).
	EpBiasCol
	// EpBiasColReLU stores C[i,j] = max(0, acc + bias[j]).
	EpBiasColReLU
	// EpBiasRow stores C[i,j] = acc + bias[i] (convolution bias: one
	// row per output channel).
	EpBiasRow
	// EpBiasRowReLU stores C[i,j] = max(0, acc + bias[i]).
	EpBiasRowReLU
)

// applyEp applies the fused epilogue to one accumulator. i and j are the
// row/column indices used to look up the bias term.
func applyEp(v float32, ep Epilogue, bias []float32, i, j int) float32 {
	switch ep {
	case EpBiasCol:
		v += bias[j]
	case EpBiasColReLU:
		v += bias[j]
		if v < 0 {
			v = 0
		}
	case EpBiasRow:
		v += bias[i]
	case EpBiasRowReLU:
		v += bias[i]
		if v < 0 {
			v = 0
		}
	}
	return v
}

// PackedBLen returns the buffer length required to pack a k×n B matrix
// into K×NR panels. The column dimension is rounded up to a whole number
// of panels; the padding lanes are zero-filled and never stored to C.
func PackedBLen(k, n int) int {
	np := (n + packNR - 1) / packNR
	return np * k * packNR
}

// PackB packs a row-major k×n matrix b into K×NR column panels: panel p
// holds columns [p*packNR, p*packNR+packNR), stored as packNR contiguous
// values per k step so the microkernel reads one sequential stream.
// Padding columns beyond n are zero-filled. bp must have at least
// PackedBLen(k, n) elements.
func PackB(k, n int, b, bp []float32) {
	if len(b) < k*n || len(bp) < PackedBLen(k, n) {
		panic(fmt.Sprintf("tensor: packb buffer too small for k=%d n=%d (len b=%d bp=%d)", k, n, len(b), len(bp)))
	}
	np := (n + packNR - 1) / packNR
	for p := 0; p < np; p++ {
		j0 := p * packNR
		jv := min(packNR, n-j0)
		dst := bp[p*k*packNR:]
		for kk := 0; kk < k; kk++ {
			src := b[kk*n+j0:]
			t := kk * packNR
			for jj := 0; jj < jv; jj++ {
				dst[t+jj] = src[jj]
			}
			for jj := jv; jj < packNR; jj++ {
				dst[t+jj] = 0
			}
		}
	}
}

func checkPacked(m, n, k int, a, bp, c []float32, ep Epilogue, bias []float32) {
	if len(a) < m*k || len(bp) < PackedBLen(k, n) || len(c) < m*n {
		panic(fmt.Sprintf("tensor: packed gemm buffer too small for m=%d n=%d k=%d (len a=%d bp=%d c=%d)", m, n, k, len(a), len(bp), len(c)))
	}
	switch ep {
	case EpBiasCol, EpBiasColReLU:
		if len(bias) < n {
			panic("tensor: packed gemm column bias too short")
		}
	case EpBiasRow, EpBiasRowReLU:
		if len(bias) < m {
			panic("tensor: packed gemm row bias too short")
		}
	}
}

// GemmPacked computes C = epilogue(A·B) where A is m×k row-major and bp
// is B packed with PackB or Im2colPanels. C is overwritten (beta = 0 semantics);
// nothing is allocated. See the package comment above for the
// bit-identity guarantees.
func GemmPacked(m, n, k int, a, bp, c []float32, ep Epilogue, bias []float32) {
	checkPacked(m, n, k, a, bp, c, ep, bias)
	zeroC(m*n, c)
	np := (n + packNR - 1) / packNR
	gemmPackedRange(m, n, k, 0, np, a, bp, c, ep, bias)
}

// GemmPackedParallel is GemmPacked with the work split across workers:
// contiguous row blocks when m > 1, contiguous panel blocks when m == 1
// (the batch-1 fully-connected case, where the row split would leave all
// but one worker idle). Each output element is produced by exactly one
// worker in the serial kernel's ascending-k order, so the result is
// bit-identical to the serial call for any worker count.
func GemmPackedParallel(workers, m, n, k int, a, bp, c []float32, ep Epilogue, bias []float32) {
	checkPacked(m, n, k, a, bp, c, ep, bias)
	zeroC(m*n, c)
	np := (n + packNR - 1) / packNR
	if workers <= 1 {
		gemmPackedRange(m, n, k, 0, np, a, bp, c, ep, bias)
		return
	}
	if m == 1 {
		ParallelRows(workers, np, func(plo, phi int) {
			gemmPackedRange(m, n, k, plo, phi, a, bp, c, ep, bias)
		})
		return
	}
	rowBias := ep == EpBiasRow || ep == EpBiasRowReLU
	ParallelRows(workers, m, func(lo, hi int) {
		bi := bias
		if rowBias {
			bi = bias[lo:hi]
		}
		gemmPackedRange(hi-lo, n, k, 0, np, a[lo*k:], bp, c[lo*n:], ep, bi)
	})
}

func zeroC(n int, c []float32) {
	for i := 0; i < n; i++ {
		c[i] = 0
	}
}

// gemmPackedRange runs the packed kernel over panel range [p0, p1) of an
// m×k · k×n product. C must hold zeros (or the previous k blocks'
// partial sums) on entry. Bias row indices are local to a (row-parallel
// callers slice a, c and a row bias together); bias column indices are
// global (panel-parallel callers pass the full column bias).
func gemmPackedRange(m, n, k, p0, p1 int, a, bp, c []float32, ep Epilogue, bias []float32) {
	var pa [packMR * packKC]float32
	for kc := 0; kc < k; kc += packKC {
		kEnd := min(kc+packKC, k)
		kcLen := kEnd - kc
		// The epilogue fires only when the final k block drains the
		// accumulators; earlier blocks store raw partial sums.
		e := EpNone
		if kEnd == k {
			e = ep
		}
		for i0 := 0; i0 < m; i0 += packMR {
			mr := min(packMR, m-i0)
			// Pack the active A tile k-major so the microkernel reads
			// one contiguous stream; it stays L1-resident across every
			// panel below.
			for r := 0; r < mr; r++ {
				arow := a[(i0+r)*k+kc : (i0+r)*k+kEnd]
				for kk, v := range arow {
					pa[kk*packMR+r] = v
				}
			}
			for p := p0; p < p1; p++ {
				j0 := p * packNR
				jv := min(packNR, n-j0)
				panel := bp[p*k*packNR+kc*packNR:]
				ct := c[i0*n+j0:]
				if mr == packMR && jv == packNR {
					micro2x4(kcLen, pa[:], panel, ct, n, e, bias, i0, j0)
				} else {
					microEdge(kcLen, mr, jv, pa[:], panel, ct, n, e, bias, i0, j0)
				}
			}
		}
	}
}

// micro2x4 is the register-tile microkernel: a full packMR×packNR tile
// accumulated over kcLen k steps. Accumulators are seeded from C (zeros
// or previous k blocks' partials) and every product is added in
// ascending-k order, matching the reference kernel's rounding exactly.
func micro2x4(kcLen int, pa, panel []float32, c []float32, ldc int, ep Epilogue, bias []float32, i0, j0 int) {
	c0 := c[0*ldc : 0*ldc+4]
	c1 := c[1*ldc : 1*ldc+4]
	c00, c01, c02, c03 := c0[0], c0[1], c0[2], c0[3]
	c10, c11, c12, c13 := c1[0], c1[1], c1[2], c1[3]
	pa = pa[:2*kcLen]
	panel = panel[:4*kcLen]
	for kk := 0; kk < kcLen; kk++ {
		t2 := 2 * kk
		t4 := 4 * kk
		a0, a1 := pa[t2], pa[t2+1]
		b0, b1, b2, b3 := panel[t4], panel[t4+1], panel[t4+2], panel[t4+3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
	}
	if ep == EpNone {
		c0[0], c0[1], c0[2], c0[3] = c00, c01, c02, c03
		c1[0], c1[1], c1[2], c1[3] = c10, c11, c12, c13
		return
	}
	c0[0] = applyEp(c00, ep, bias, i0, j0)
	c0[1] = applyEp(c01, ep, bias, i0, j0+1)
	c0[2] = applyEp(c02, ep, bias, i0, j0+2)
	c0[3] = applyEp(c03, ep, bias, i0, j0+3)
	c1[0] = applyEp(c10, ep, bias, i0+1, j0)
	c1[1] = applyEp(c11, ep, bias, i0+1, j0+1)
	c1[2] = applyEp(c12, ep, bias, i0+1, j0+2)
	c1[3] = applyEp(c13, ep, bias, i0+1, j0+3)
}

// microEdge handles partial tiles at the m and n fringes (mr < packMR
// and/or jv < packNR). Same seeding and ascending-k accumulation order
// as micro2x4, one element at a time.
func microEdge(kcLen, mr, jv int, pa, panel []float32, c []float32, ldc int, ep Epilogue, bias []float32, i0, j0 int) {
	for r := 0; r < mr; r++ {
		crow := c[r*ldc:]
		for jj := 0; jj < jv; jj++ {
			acc := crow[jj]
			for kk := 0; kk < kcLen; kk++ {
				acc += pa[kk*packMR+r] * panel[kk*packNR+jj]
			}
			crow[jj] = applyEp(acc, ep, bias, i0+r, j0+jj)
		}
	}
}

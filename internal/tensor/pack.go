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
// sequential read. The 6×16 tile is sized by the sixteen AVX2 YMM
// registers: twelve accumulators (six rows of two 8-lane vectors), the
// two B vectors of one k step and two temporaries, so nothing spills.
// Tiles at the m and n fringes run the same kernel on a zero-padded
// 6×16 copy of their C block on the stack; only the real rows and
// columns are copied back. Off amd64, without AVX2 and under the purego
// tag a portable twin runs the same tile as 2×4 register sub-tiles.
//
// Numerics: products are accumulated one at a time in ascending-k order
// per output element, exactly like the reference kernel, and partial
// sums round-trip through C between k blocks just as Gemm's cache
// blocking does. Every product is rounded to float32 before it is added
// (VMULPS then VADDPS in the AVX2 tile, an explicit float32 conversion
// in the twin), never fused into a multiply-add. Because the accumulator
// is float32 and its round-trip through C is exact, neither the tile
// shape nor packKC changes a bit. For finite inputs the result of
// GemmPacked(..., EpNone, nil) is therefore bit-identical to
// Gemm(m, n, k, 1, a, b, 0, c), and the fused epilogues are
// bit-identical to Gemm followed by the same bias add and ReLU clamp one
// element at a time. Parallel variants assign every output element to
// exactly one worker which computes it in the same ascending-k order, so
// results are bit-identical for any worker count.
const (
	// packNR is the panel width: each packed panel stores packNR
	// consecutive B columns, interleaved per k step.
	packNR = 16
	// packMR is the register tile height of the float32 microkernel.
	packMR = 6
	// packKC is the k-block length. One A tile (packMR×packKC floats,
	// 6 KiB) and one B panel block (packKC×packNR floats, 16 KiB) sit in
	// L1 together while the microkernel runs.
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
	gemmPacked(useAVX2, 1, m, n, k, a, bp, c, ep, bias)
}

// GemmPackedParallel is GemmPacked with the work split across workers:
// contiguous blocks of row tiles when m > packMR, contiguous panel
// blocks otherwise (the batch-1 fully-connected case, where the row
// split would leave all but one worker idle). Each output element is
// produced by exactly one worker in the serial kernel's ascending-k
// order, so the result is bit-identical to the serial call for any
// worker count.
func GemmPackedParallel(workers, m, n, k int, a, bp, c []float32, ep Epilogue, bias []float32) {
	gemmPacked(useAVX2, workers, m, n, k, a, bp, c, ep, bias)
}

// gemmPacked is GemmPackedParallel with the tile implementation chosen
// by the caller: asm selects the AVX2 tile (valid only where useAVX2
// holds), otherwise the portable twin runs. Tests drive both.
func gemmPacked(asm bool, workers, m, n, k int, a, bp, c []float32, ep Epilogue, bias []float32) {
	checkPacked(m, n, k, a, bp, c, ep, bias)
	clear(c[:m*n])
	np := (n + packNR - 1) / packNR
	tiles := (m + packMR - 1) / packMR
	switch {
	case workers <= 1:
		gemmPackedRange(asm, m, n, k, 0, np, a, bp, c, ep, bias)
	case tiles == 1:
		ParallelRows(workers, np, func(plo, phi int) {
			gemmPackedRange(asm, m, n, k, plo, phi, a, bp, c, ep, bias)
		})
	default:
		rowBias := ep == EpBiasRow || ep == EpBiasRowReLU
		ParallelRows(workers, tiles, func(lo, hi int) {
			r0, r1 := lo*packMR, min(hi*packMR, m)
			bi := bias
			if rowBias {
				bi = bias[r0:r1]
			}
			gemmPackedRange(asm, r1-r0, n, k, 0, np, a[r0*k:], bp, c[r0*n:], ep, bi)
		})
	}
}

// gemmPackedRange runs the packed kernel over panel range [p0, p1) of an
// m×k · k×n product. C must hold zeros (or the previous k blocks'
// partial sums) on entry. Bias row indices are local to a (row-parallel
// callers slice a, c and a row bias together); bias column indices are
// global (panel-parallel callers pass the full column bias).
func gemmPackedRange(asm bool, m, n, k, p0, p1 int, a, bp, c []float32, ep Epilogue, bias []float32) {
	var pa [packMR * packKC]float32
	var edge [packMR * packNR]float32
	for kc := 0; kc < k; kc += packKC {
		kEnd := min(kc+packKC, k)
		kcLen := kEnd - kc
		// The epilogue fires only when the final k block leaves the
		// tile; earlier blocks store raw partial sums.
		e := EpNone
		if kEnd == k {
			e = ep
		}
		for i0 := 0; i0 < m; i0 += packMR {
			mr := min(packMR, m-i0)
			// Pack the active A tile k-major so the microkernel reads
			// one contiguous stream; it stays L1-resident across every
			// panel below. In a fringe tile the rows past mr keep
			// whatever the previous tile left: their sums land in rows
			// of the stack tile that are never copied back.
			for r := 0; r < mr; r++ {
				arow := a[(i0+r)*k+kc : (i0+r)*k+kEnd]
				for kk, v := range arow {
					pa[kk*packMR+r] = v
				}
			}
			for p := p0; p < p1; p++ {
				j0 := p * packNR
				jv := min(packNR, n-j0)
				panel := bp[p*k*packNR+kc*packNR : p*k*packNR+kEnd*packNR]
				ct := c[i0*n+j0:]
				if mr == packMR && jv == packNR {
					tile(asm, kcLen, pa[:], panel, ct, n)
					if e != EpNone {
						storeTile(ct, n, ct, n, mr, jv, e, bias, i0, j0)
					}
					continue
				}
				// Fringe: run the full tile on a zero-padded copy of the
				// real mr×jv block, then copy back only that block.
				clear(edge[:])
				for r := 0; r < mr; r++ {
					copy(edge[r*packNR:r*packNR+jv], ct[r*n:r*n+jv])
				}
				tile(asm, kcLen, pa[:], panel, edge[:], packNR)
				storeTile(ct, n, edge[:], packNR, mr, jv, e, bias, i0, j0)
			}
		}
	}
}

// tile accumulates kcLen k steps of the packMR×packNR product of the
// packed A tile pa and one panel block into the tile of c at row stride
// ldc, seeding from and storing back to c.
func tile(asm bool, kcLen int, pa, panel, c []float32, ldc int) {
	if asm {
		tile6x16(kcLen, pa, panel, c, ldc)
	} else {
		tile6x16Go(kcLen, pa, panel, c, ldc)
	}
}

// storeTile writes the top-left mr×jv block of the tile src (row stride
// lds) to dst (row stride ldd) through the epilogue; src and dst may be
// the same tile. i0 and j0 locate the block in C for the bias lookup.
// Each element gets applyEp's arithmetic — the bias add, then the clamp
// — with the epilogue switch hoisted out of the element loop.
func storeTile(dst []float32, ldd int, src []float32, lds, mr, jv int, ep Epilogue, bias []float32, i0, j0 int) {
	relu := ep == EpBiasColReLU || ep == EpBiasRowReLU
	for r := 0; r < mr; r++ {
		d, s := dst[r*ldd:r*ldd+jv], src[r*lds:r*lds+jv]
		switch ep {
		case EpNone:
			copy(d, s)
		case EpBiasRow, EpBiasRowReLU:
			b := bias[i0+r]
			for jj, v := range s {
				v += b
				if relu && v < 0 {
					v = 0
				}
				d[jj] = v
			}
		case EpBiasCol, EpBiasColReLU:
			b := bias[j0 : j0+jv]
			for jj, v := range s {
				v += b[jj]
				if relu && v < 0 {
					v = 0
				}
				d[jj] = v
			}
		}
	}
}

// tile6x16Go is the portable twin of the AVX2 tile and its oracle: the
// same packMR×packNR tile, seeded from c and summed in ascending k, run
// as 2×4 register sub-tiles so the eight accumulators and six operands
// of each fit the registers of any 64-bit target. Each product is
// converted to float32 explicitly, which forbids the compiler from
// fusing it into a multiply-add (the Go spec allows fusion otherwise,
// and arm64 and GOAMD64=v3 builds do it).
func tile6x16Go(kcLen int, pa, panel, c []float32, ldc int) {
	pa = pa[:packMR*kcLen]
	panel = panel[:packNR*kcLen]
	for i := 0; i < packMR; i += 2 {
		for j := 0; j < packNR; j += 4 {
			c0 := c[i*ldc+j : i*ldc+j+4]
			c1 := c[(i+1)*ldc+j : (i+1)*ldc+j+4]
			c00, c01, c02, c03 := c0[0], c0[1], c0[2], c0[3]
			c10, c11, c12, c13 := c1[0], c1[1], c1[2], c1[3]
			for kk := 0; kk < kcLen; kk++ {
				a := pa[kk*packMR+i : kk*packMR+i+2]
				b := panel[kk*packNR+j : kk*packNR+j+4]
				a0, a1 := a[0], a[1]
				b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
				c00 += float32(a0 * b0)
				c01 += float32(a0 * b1)
				c02 += float32(a0 * b2)
				c03 += float32(a0 * b3)
				c10 += float32(a1 * b0)
				c11 += float32(a1 * b1)
				c12 += float32(a1 * b2)
				c13 += float32(a1 * b3)
			}
			c0[0], c0[1], c0[2], c0[3] = c00, c01, c02, c03
			c1[0], c1[1], c1[2], c1[3] = c10, c11, c12, c13
		}
	}
}

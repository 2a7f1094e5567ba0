package tensor

import "fmt"

// Symmetric int8 quantization and the packed int8 GEMM backend.
//
// The scheme is per-tensor symmetric: q = clamp(round(x/scale), -127,
// 127) with a zero point of 0, so the dequantized value is q*scale and a
// GEMM over two quantized operands dequantizes with the single combined
// scale scaleA*scaleB applied to the integer accumulator. Weights are
// quantized once (at plan compile or `.djw` export); activations are
// quantized per call from their live max-abs. Integer accumulation is
// exact and associative, so — unlike the float kernels — any work split
// yields bit-identical results by construction.
//
// The kernel does not multiply int8 values directly: scalar integer
// multiplies own a single amd64 port, so a one-product-per-multiply
// kernel cannot beat the float path. Instead both operands are stored
// offset by +127 into [0, 254] ("ua = qa+127") and two A rows are packed
// into the two 32-bit lanes of one uint64. One 64-bit multiply
// (ua_lo + ua_hi·2³²)·ub then yields both rows' products in separate
// lanes — two MACs per multiply — and the offset is removed after the
// k loop with the standard zero-point identity
//
//	Σ qa·qb = Σ (qa+127)(qb+127) − 127·Σqa − 127·Σqb − k·127²
//
// using per-row and per-column sums of the signed values computed once
// at pack time. Lane isolation requires k·254² < 2³², hence maxQuantK.

// QuantMax is the symmetric quantization clamp: values map into
// [-QuantMax, QuantMax]. -128 is left unused so the offset encoding
// ua = q+127 fits [0, 254] and the range stays symmetric.
const QuantMax = 127

// quantOffset biases signed quantized values into the unsigned domain
// used by the packed operands.
const quantOffset = QuantMax

// MaxQuantK bounds the shared k dimension of the int8 kernel: the
// per-lane sum of k products of offset values ≤ 254·254 must stay below
// 2³² so the two lanes of the uint64 accumulator cannot interfere.
// Callers building int8 execution plans should reject larger reductions
// up front (every Tonic-suite layer is far below the bound).
const MaxQuantK = (1<<32 - 1) / ((2 * QuantMax) * (2 * QuantMax))

const maxQuantK = MaxQuantK

// quantMRQ is the row-tile height of the int8 microkernel: two lane
// pairs, i.e. four A rows per tile.
const quantMRQ = 4

// quantNR is the int8 kernel's panel width: micro4x4i8 reads four
// offset bytes per k step. It is the int8 path's own constant, apart
// from the float32 kernel's packNR.
const quantNR = 4

// QuantScale returns the symmetric scale for a tensor with the given
// max-abs value: maxAbs/127, so the extreme values land exactly on
// ±127. A degenerate (all-zero, empty or non-finite-free) tensor gets
// scale 1, which quantizes everything to 0 and dequantizes exactly.
func QuantScale(maxAbs float32) float32 {
	if !(maxAbs > 0) {
		return 1
	}
	return maxAbs / QuantMax
}

// quantizeOne rounds v (already divided by the scale) to the nearest
// integer, half away from zero, clamped to [-127, 127]. NaN maps to 0.
func quantizeOne(v float32) int8 {
	if v != v {
		return 0
	}
	if v >= 0 {
		v += 0.5
		if v >= QuantMax {
			return QuantMax
		}
		return int8(int32(v))
	}
	v -= 0.5
	if v <= -QuantMax {
		return -QuantMax
	}
	return int8(int32(v))
}

// QuantizeWith quantizes src into dst with an externally chosen scale
// (values beyond ±scale·127 saturate). len(dst) must be ≥ len(src).
func QuantizeWith(src []float32, dst []int8, scale float32) {
	if len(dst) < len(src) {
		panic("tensor: quantize dst too short")
	}
	inv := 1 / scale
	for i, v := range src {
		dst[i] = quantizeOne(v * inv)
	}
}

// QuantizeSymmetric quantizes src into dst with the scale derived from
// src's own max-abs and returns that scale. This is the single
// quantization routine shared by `Compile`-time weight quantization and
// `.djw` export, so stored and on-the-fly quantized weights are
// bit-identical.
func QuantizeSymmetric(src []float32, dst []int8) float32 {
	scale := QuantScale(MaxAbs(src))
	QuantizeWith(src, dst, scale)
	return scale
}

// Dequantize expands quantized values back to float32: dst[i] =
// scale*src[i].
func Dequantize(src []int8, dst []float32, scale float32) {
	if len(dst) < len(src) {
		panic("tensor: dequantize dst too short")
	}
	for i, q := range src {
		dst[i] = scale * float32(q)
	}
}

// PackedAInt8Len returns the uint64 count needed to pack an m×k A
// matrix: rows are paired into the two 32-bit lanes of one word, so
// ⌈m/2⌉ pair-rows of k words each. An odd trailing row gets a zero high
// lane, which contributes nothing to the (unread) padding outputs.
func PackedAInt8Len(m, k int) int {
	return (m + 1) / 2 * k
}

// PackAInt8 packs pre-quantized row-major m×k values into offset lane
// pairs: pa[pr*k+kk] = (q[2pr,kk]+127) | (q[2pr+1,kk]+127)<<32. rowSum
// receives the per-row sums of the signed values (len ≥ m), consumed by
// the kernel's zero-point correction.
func PackAInt8(m, k int, q []int8, pa []uint64, rowSum []int32) {
	if len(q) < m*k || len(pa) < PackedAInt8Len(m, k) || len(rowSum) < m {
		panic(fmt.Sprintf("tensor: packa int8 buffer too small for m=%d k=%d (len q=%d pa=%d rowSum=%d)", m, k, len(q), len(pa), len(rowSum)))
	}
	for pr := 0; pr < (m+1)/2; pr++ {
		r0 := 2 * pr
		lo := q[r0*k : r0*k+k]
		dst := pa[pr*k : pr*k+k]
		var s0, s1 int32
		if r0+1 < m {
			hi := q[(r0+1)*k : (r0+1)*k+k]
			for kk := 0; kk < k; kk++ {
				q0, q1 := int32(lo[kk]), int32(hi[kk])
				s0 += q0
				s1 += q1
				dst[kk] = uint64(uint32(q0+quantOffset)) | uint64(uint32(q1+quantOffset))<<32
			}
			rowSum[r0+1] = s1
		} else {
			for kk := 0; kk < k; kk++ {
				q0 := int32(lo[kk])
				s0 += q0
				dst[kk] = uint64(uint32(q0 + quantOffset))
			}
		}
		rowSum[r0] = s0
	}
}

// QuantizePackAInt8 quantizes a row-major m×k float32 matrix with the
// given scale and packs it into offset lane pairs in a single pass —
// the per-call activation path: the fully-connected input batch is
// quantized directly into the plan's packed scratch.
func QuantizePackAInt8(m, k int, a []float32, scale float32, pa []uint64, rowSum []int32) {
	if len(a) < m*k || len(pa) < PackedAInt8Len(m, k) || len(rowSum) < m {
		panic(fmt.Sprintf("tensor: quantize-pack A buffer too small for m=%d k=%d (len a=%d pa=%d rowSum=%d)", m, k, len(a), len(pa), len(rowSum)))
	}
	inv := 1 / scale
	for pr := 0; pr < (m+1)/2; pr++ {
		r0 := 2 * pr
		lo := a[r0*k : r0*k+k]
		dst := pa[pr*k : pr*k+k]
		var s0, s1 int32
		if r0+1 < m {
			hi := a[(r0+1)*k : (r0+1)*k+k]
			for kk := 0; kk < k; kk++ {
				q0 := int32(quantizeOne(lo[kk] * inv))
				q1 := int32(quantizeOne(hi[kk] * inv))
				s0 += q0
				s1 += q1
				dst[kk] = uint64(uint32(q0+quantOffset)) | uint64(uint32(q1+quantOffset))<<32
			}
			rowSum[r0+1] = s1
		} else {
			for kk := 0; kk < k; kk++ {
				q0 := int32(quantizeOne(lo[kk] * inv))
				s0 += q0
				dst[kk] = uint64(uint32(q0 + quantOffset))
			}
		}
		rowSum[r0] = s0
	}
}

// PackedBInt8Len returns the byte count needed to pack a k×n int8 B
// matrix into K×NR panels of quantNR columns, the last one zero-padded.
func PackedBInt8Len(k, n int) int {
	return (n + quantNR - 1) / quantNR * k * quantNR
}

// PackBTInt8 packs pre-quantized B from its transpose: qt is row-major
// n×k (the fully-connected weight layout [out, in]) and bp receives the
// K×NR panel layout with values offset into [0, 254]. colSum receives
// the per-column sums of the signed values (len ≥ n). Padding lanes
// store 0, which contributes nothing to any real output.
func PackBTInt8(k, n int, qt []int8, bp []uint8, colSum []int32) {
	if len(qt) < k*n || len(bp) < PackedBInt8Len(k, n) || len(colSum) < n {
		panic(fmt.Sprintf("tensor: packbt int8 buffer too small for k=%d n=%d (len qt=%d bp=%d colSum=%d)", k, n, len(qt), len(bp), len(colSum)))
	}
	np := (n + quantNR - 1) / quantNR
	for p := 0; p < np; p++ {
		j0 := p * quantNR
		jv := min(quantNR, n-j0)
		dst := bp[p*k*quantNR:]
		for jj := 0; jj < jv; jj++ {
			col := qt[(j0+jj)*k : (j0+jj)*k+k]
			var s int32
			for kk := 0; kk < k; kk++ {
				q := int32(col[kk])
				s += q
				dst[kk*quantNR+jj] = uint8(q + quantOffset)
			}
			colSum[j0+jj] = s
		}
		for jj := jv; jj < quantNR; jj++ {
			for kk := 0; kk < k; kk++ {
				dst[kk*quantNR+jj] = 0
			}
		}
	}
}

// QuantizePackBInt8 quantizes a row-major k×n float32 matrix with the
// given scale and packs it into offset K×NR panels in a single pass —
// the per-call im2col path: the convolution column matrix is quantized
// directly into the plan's packed scratch without an intermediate int8
// copy. colSum receives per-column signed sums (len ≥ n).
func QuantizePackBInt8(k, n int, b []float32, scale float32, bp []uint8, colSum []int32) {
	if len(b) < k*n || len(bp) < PackedBInt8Len(k, n) || len(colSum) < n {
		panic(fmt.Sprintf("tensor: quantize-pack B buffer too small for k=%d n=%d (len b=%d bp=%d colSum=%d)", k, n, len(b), len(bp), len(colSum)))
	}
	inv := 1 / scale
	np := (n + quantNR - 1) / quantNR
	for jj := 0; jj < n; jj++ {
		colSum[jj] = 0
	}
	for p := 0; p < np; p++ {
		j0 := p * quantNR
		jv := min(quantNR, n-j0)
		dst := bp[p*k*quantNR:]
		for kk := 0; kk < k; kk++ {
			src := b[kk*n+j0:]
			t := kk * quantNR
			for jj := 0; jj < jv; jj++ {
				q := int32(quantizeOne(src[jj] * inv))
				colSum[j0+jj] += q
				dst[t+jj] = uint8(q + quantOffset)
			}
			for jj := jv; jj < quantNR; jj++ {
				dst[t+jj] = 0
			}
		}
	}
}

func checkPackedInt8(m, n, k int, pa []uint64, rowSum []int32, bp []uint8, colSum []int32, c []float32, ep Epilogue, bias []float32) {
	if len(pa) < PackedAInt8Len(m, k) || len(bp) < PackedBInt8Len(k, n) || len(c) < m*n {
		panic(fmt.Sprintf("tensor: int8 gemm buffer too small for m=%d n=%d k=%d (len pa=%d bp=%d c=%d)", m, n, k, len(pa), len(bp), len(c)))
	}
	if len(rowSum) < m || len(colSum) < n {
		panic(fmt.Sprintf("tensor: int8 gemm sum buffer too small for m=%d n=%d (len rowSum=%d colSum=%d)", m, n, len(rowSum), len(colSum)))
	}
	if k > maxQuantK {
		panic(fmt.Sprintf("tensor: int8 gemm k=%d would overflow lane accumulation (max %d)", k, maxQuantK))
	}
	switch ep {
	case EpBiasCol, EpBiasColReLU:
		if len(bias) < n {
			panic("tensor: int8 gemm column bias too short")
		}
	case EpBiasRow, EpBiasRowReLU:
		if len(bias) < m {
			panic("tensor: int8 gemm row bias too short")
		}
	}
}

// GemmPackedInt8 computes C = epilogue(scale · (A·B)) over quantized
// operands: pa/rowSum from PackAInt8 or QuantizePackAInt8 (m×k),
// bp/colSum from PackBTInt8 or QuantizePackBInt8 (k×n), and scale the
// combined dequantization factor scaleA·scaleB. Dequantize, zero-point
// correction, bias and ReLU are all fused into the store. C is
// overwritten; nothing is allocated.
func GemmPackedInt8(m, n, k int, pa []uint64, rowSum []int32, bp []uint8, colSum []int32, c []float32, scale float32, ep Epilogue, bias []float32) {
	checkPackedInt8(m, n, k, pa, rowSum, bp, colSum, c, ep, bias)
	np := (n + quantNR - 1) / quantNR
	gemmPackedInt8Range(m, n, k, 0, np, pa, rowSum, bp, colSum, c, scale, ep, bias)
}

// GemmPackedInt8Parallel splits GemmPackedInt8 across workers:
// contiguous pair-row blocks when m > 2 (pair alignment keeps each
// worker's lanes self-contained), panel blocks otherwise. Integer
// accumulation is associative, so any split is exactly identical to the
// serial result.
func GemmPackedInt8Parallel(workers, m, n, k int, pa []uint64, rowSum []int32, bp []uint8, colSum []int32, c []float32, scale float32, ep Epilogue, bias []float32) {
	checkPackedInt8(m, n, k, pa, rowSum, bp, colSum, c, ep, bias)
	np := (n + quantNR - 1) / quantNR
	if workers <= 1 {
		gemmPackedInt8Range(m, n, k, 0, np, pa, rowSum, bp, colSum, c, scale, ep, bias)
		return
	}
	if m <= 2 {
		ParallelRows(workers, np, func(plo, phi int) {
			gemmPackedInt8Range(m, n, k, plo, phi, pa, rowSum, bp, colSum, c, scale, ep, bias)
		})
		return
	}
	rowBias := ep == EpBiasRow || ep == EpBiasRowReLU
	pairs := (m + 1) / 2
	ParallelRows(workers, pairs, func(plo, phi int) {
		lo := 2 * plo
		hi := min(2*phi, m)
		bi := bias
		if rowBias {
			bi = bias[lo:hi]
		}
		gemmPackedInt8Range(hi-lo, n, k, 0, np, pa[plo*k:], rowSum[lo:hi], bp, colSum, c[lo*n:], scale, ep, bi)
	})
}

// gemmPackedInt8Range runs the int8 kernel over panel range [p0, p1).
// Row tiles are the outer loop: one tile's packed A rows (16·k bytes)
// stay hot while the one-byte-per-element B panels stream past, which
// is 4× less cache traffic than streaming the 8-byte A pairs per panel.
func gemmPackedInt8Range(m, n, k, p0, p1 int, pa []uint64, rowSum []int32, bp []uint8, colSum []int32, c []float32, scale float32, ep Epilogue, bias []float32) {
	for i0 := 0; i0 < m; i0 += quantMRQ {
		mr := min(quantMRQ, m-i0)
		for p := p0; p < p1; p++ {
			j0 := p * quantNR
			jv := min(quantNR, n-j0)
			panel := bp[p*k*quantNR : p*k*quantNR+k*quantNR]
			ct := c[i0*n+j0:]
			if mr == quantMRQ && jv == quantNR {
				pr := i0 >> 1
				micro4x4i8(k,
					pa[pr*k:pr*k+k], pa[(pr+1)*k:(pr+1)*k+k],
					panel, ct, n, rowSum, colSum, scale, ep, bias, i0, j0)
			} else {
				microEdgeI8(k, mr, jv, pa[(i0>>1)*k:], panel, ct, n, rowSum, colSum, scale, ep, bias, i0, j0)
			}
		}
	}
}

// laneDot removes the offset encoding from one 32-bit lane sum and
// dequantizes it: the exact signed dot product is
// lane − 127·(rowSum+colSum) − k·127².
func laneDot(lane uint32, rowSum, colSum int32, k int, scale float32) float32 {
	dot := int64(lane) - quantOffset*(int64(rowSum)+int64(colSum)) - int64(k)*QuantMax*QuantMax
	return float32(dot) * scale
}

// micro4x4i8 is the int8 microkernel: two lane-pair rows × four columns.
// Each 64-bit multiply produces two rows' products at once, so the loop
// retires 16 MACs with 8 multiplies; 8 accumulators plus 6 operands fit
// the amd64 integer register file with no spills.
func micro4x4i8(k int, pr0, pr1 []uint64, panel []uint8, c []float32, ldc int, rowSum, colSum []int32, scale float32, ep Epilogue, bias []float32, i0, j0 int) {
	var q00, q01, q02, q03 uint64
	var q10, q11, q12, q13 uint64
	pr0 = pr0[:k]
	pr1 = pr1[:k]
	panel = panel[:4*k]
	for kk := 0; kk < k; kk++ {
		a0 := pr0[kk]
		a1 := pr1[kk]
		t := 4 * kk
		b0 := uint64(panel[t])
		b1 := uint64(panel[t+1])
		b2 := uint64(panel[t+2])
		b3 := uint64(panel[t+3])
		q00 += a0 * b0
		q01 += a0 * b1
		q02 += a0 * b2
		q03 += a0 * b3
		q10 += a1 * b0
		q11 += a1 * b1
		q12 += a1 * b2
		q13 += a1 * b3
	}
	c0 := c[0*ldc : 0*ldc+4]
	c1 := c[1*ldc : 1*ldc+4]
	c2 := c[2*ldc : 2*ldc+4]
	c3 := c[3*ldc : 3*ldc+4]
	rs0, rs1, rs2, rs3 := rowSum[i0], rowSum[i0+1], rowSum[i0+2], rowSum[i0+3]
	cs0, cs1, cs2, cs3 := colSum[j0], colSum[j0+1], colSum[j0+2], colSum[j0+3]
	c0[0] = applyEp(laneDot(uint32(q00), rs0, cs0, k, scale), ep, bias, i0, j0)
	c0[1] = applyEp(laneDot(uint32(q01), rs0, cs1, k, scale), ep, bias, i0, j0+1)
	c0[2] = applyEp(laneDot(uint32(q02), rs0, cs2, k, scale), ep, bias, i0, j0+2)
	c0[3] = applyEp(laneDot(uint32(q03), rs0, cs3, k, scale), ep, bias, i0, j0+3)
	c1[0] = applyEp(laneDot(uint32(q00>>32), rs1, cs0, k, scale), ep, bias, i0+1, j0)
	c1[1] = applyEp(laneDot(uint32(q01>>32), rs1, cs1, k, scale), ep, bias, i0+1, j0+1)
	c1[2] = applyEp(laneDot(uint32(q02>>32), rs1, cs2, k, scale), ep, bias, i0+1, j0+2)
	c1[3] = applyEp(laneDot(uint32(q03>>32), rs1, cs3, k, scale), ep, bias, i0+1, j0+3)
	c2[0] = applyEp(laneDot(uint32(q10), rs2, cs0, k, scale), ep, bias, i0+2, j0)
	c2[1] = applyEp(laneDot(uint32(q11), rs2, cs1, k, scale), ep, bias, i0+2, j0+1)
	c2[2] = applyEp(laneDot(uint32(q12), rs2, cs2, k, scale), ep, bias, i0+2, j0+2)
	c2[3] = applyEp(laneDot(uint32(q13), rs2, cs3, k, scale), ep, bias, i0+2, j0+3)
	c3[0] = applyEp(laneDot(uint32(q10>>32), rs3, cs0, k, scale), ep, bias, i0+3, j0)
	c3[1] = applyEp(laneDot(uint32(q11>>32), rs3, cs1, k, scale), ep, bias, i0+3, j0+1)
	c3[2] = applyEp(laneDot(uint32(q12>>32), rs3, cs2, k, scale), ep, bias, i0+3, j0+2)
	c3[3] = applyEp(laneDot(uint32(q13>>32), rs3, cs3, k, scale), ep, bias, i0+3, j0+3)
}

// microEdgeI8 handles partial tiles at the m and n fringes, one output
// element at a time. pa points at the tile's first pair-row; row r's
// offset values live in lane (r&1) of pair-row r>>1.
func microEdgeI8(k, mr, jv int, pa []uint64, panel []uint8, c []float32, ldc int, rowSum, colSum []int32, scale float32, ep Epilogue, bias []float32, i0, j0 int) {
	for r := 0; r < mr; r++ {
		prow := pa[(r>>1)*k : (r>>1)*k+k]
		shift := uint(r&1) * 32
		crow := c[r*ldc:]
		for jj := 0; jj < jv; jj++ {
			var acc uint64
			for kk := 0; kk < k; kk++ {
				ua := (prow[kk] >> shift) & 0xFFFFFFFF
				acc += ua * uint64(panel[kk*quantNR+jj])
			}
			crow[jj] = applyEp(laneDot(uint32(acc), rowSum[i0+r], colSum[j0+jj], k, scale), ep, bias, i0+r, j0+jj)
		}
	}
}

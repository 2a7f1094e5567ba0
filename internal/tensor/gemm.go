package tensor

import (
	"fmt"
	"sync"
)

// gemm block sizes, sized so that a block of B and the corresponding rows
// of A stay resident in L1/L2 while the inner kernel runs.
const (
	blockM = 64
	blockN = 256
	blockK = 64
)

// Gemm computes C = alpha*A*B + beta*C for row-major matrices,
// where A is m×k, B is k×n and C is m×n. It panics if the buffer sizes
// do not match the dimensions. The implementation is cache-blocked with
// an unrolled inner kernel. The layers run the panel kernel (GemmPacked),
// which gives the same bits; Gemm stays as its reference and as the
// host canary's fixed workload.
func Gemm(m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic(fmt.Sprintf("tensor: gemm buffer too small for m=%d n=%d k=%d (len a=%d b=%d c=%d)", m, n, k, len(a), len(b), len(c)))
	}
	if beta != 1 {
		if beta == 0 {
			for i := 0; i < m*n; i++ {
				c[i] = 0
			}
		} else {
			for i := 0; i < m*n; i++ {
				c[i] *= beta
			}
		}
	}
	if alpha == 0 {
		return
	}
	for kk := 0; kk < k; kk += blockK {
		kMax := min(kk+blockK, k)
		for jj := 0; jj < n; jj += blockN {
			jMax := min(jj+blockN, n)
			for ii := 0; ii < m; ii += blockM {
				iMax := min(ii+blockM, m)
				gemmBlock(ii, iMax, jj, jMax, kk, kMax, n, k, alpha, a, b, c)
			}
		}
	}
}

// gemmBlock handles one cache block. The inner loop is written over j so
// the compiler can keep the accumulation in registers and the B row
// access is sequential.
func gemmBlock(i0, i1, j0, j1, k0, k1, n, k int, alpha float32, a, b, c []float32) {
	for i := i0; i < i1; i++ {
		arow := a[i*k : i*k+k1]
		crow := c[i*n : i*n+j1]
		for kk := k0; kk < k1; kk++ {
			av := alpha * arow[kk]
			if av == 0 {
				continue
			}
			brow := b[kk*n : kk*n+j1]
			j := j0
			for ; j+4 <= j1; j += 4 {
				crow[j] += av * brow[j]
				crow[j+1] += av * brow[j+1]
				crow[j+2] += av * brow[j+2]
				crow[j+3] += av * brow[j+3]
			}
			for ; j < j1; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
}

// ParallelRows splits [0, rows) into contiguous blocks, one per worker,
// and calls fn(lo, hi) concurrently on each. fn must only touch state
// owned by its row range. workers <= 1 (or a single block) runs
// fn(0, rows) on the calling goroutine with no synchronisation cost.
func ParallelRows(workers, rows int, fn func(lo, hi int)) {
	if rows <= 0 {
		return
	}
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		fn(0, rows)
		return
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// GemmNaive is the straightforward triple loop, kept as the reference
// implementation for property tests of Gemm.
func GemmNaive(m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float32
			for kk := 0; kk < k; kk++ {
				sum += a[i*k+kk] * b[kk*n+j]
			}
			c[i*n+j] = alpha*sum + beta*c[i*n+j]
		}
	}
}

// Gemv computes y = alpha*A*x + beta*y where A is m×n row-major. With
// beta == 0, y is only written, as in Gemm: a stale Inf or NaN left in
// a reused buffer must not turn into 0·Inf = NaN in the result. Each
// product is rounded to float32 before it is added (the conversions
// forbid a fused multiply-add), so the sums are the same on every
// architecture and match GemvBatch's tile bit for bit.
func Gemv(m, n int, alpha float32, a, x []float32, beta float32, y []float32) {
	if len(a) < m*n || len(x) < n || len(y) < m {
		panic(fmt.Sprintf("tensor: gemv buffer too small for m=%d n=%d", m, n))
	}
	for i := 0; i < m; i++ {
		row := a[i*n : i*n+n]
		var sum float32
		j := 0
		for ; j+4 <= n; j += 4 {
			sum += float32(row[j]*x[j]) + float32(row[j+1]*x[j+1]) + float32(row[j+2]*x[j+2]) + float32(row[j+3]*x[j+3])
		}
		for ; j < n; j++ {
			sum += float32(row[j] * x[j])
		}
		if beta == 0 {
			y[i] = alpha * sum
		} else {
			y[i] = alpha*sum + beta*y[i]
		}
	}
}

// Dot returns the inner product of a and b (which must be equal length),
// summed strictly in index order. Each product is rounded to float32
// before it is added, so no target fuses the loop into multiply-adds and
// the result is the same on every architecture.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("tensor: dot length mismatch")
	}
	var sum float32
	for i := range a {
		sum += float32(a[i] * b[i])
	}
	return sum
}

// Axpy computes y += alpha*x.
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: axpy length mismatch")
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies every element of x by alpha.
func Scale(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

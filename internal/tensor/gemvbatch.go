package tensor

import "fmt"

// Batched GEMV: y[b] = A·x[b] for every sample of a batch, reading each
// row of A once per batch instead of once per sample.
//
// A per-sample Gemv streams the whole of A from memory for every
// sample, so a layer whose weights do not fit in cache costs batch×|A|
// of DRAM traffic — the cost the paper's batching (Section 5.1) exists
// to amortise. GemvBatch packs the batch transposed into panels of
// batchLanes samples (xᵀ: for each input k, the batchLanes samples'
// x[b][k] side by side, pad lanes zeroed) and walks A in tiles of
// batchRows rows: row tiles are the outer loop and panels the inner
// one, so a tile's rows stay in L1/L2 while every panel passes over
// them and each weight is fetched from DRAM once.
//
// Numerics: each lane is one sample and repeats Gemv's scalar
// arithmetic exactly — per 4-step sum += ((w0·x0 + w1·x1) + w2·x2) +
// w3·x3, then the remaining products one at a time, every product
// rounded to float32 before it is added (no fused multiply-add). The
// result is therefore bit-identical to Gemv(m, n, 1, A, x[b], 0, y[b])
// for every sample, every batch size and every worker count: workers
// own disjoint row tiles and never split a sum. y is only written,
// never read.
const (
	// batchLanes is the panel width: samples per 256-bit vector.
	batchLanes = 8
	// batchRows is the tile height: weight rows whose sums the kernel
	// carries at once, one accumulator register each.
	batchRows = 4
)

// PanelLen returns the scratch floats GemvBatch needs to pack batch
// samples of n inputs: the batch rounded up to whole panels.
func PanelLen(batch, n int) int {
	return (batch + batchLanes - 1) / batchLanes * batchLanes * n
}

// GemvBatch computes y[b] = A·x[b] for b < batch, where A is m×n
// row-major, x is batch×n and y is batch×m, both row-major. panels is
// caller-owned scratch of at least PanelLen(batch, n) floats, so the
// steady-state call allocates nothing. workers > 1 splits the row tiles
// across that many goroutines; workers ≤ 1 runs on the calling
// goroutine. Results are bit-identical to a per-sample
// Gemv(m, n, 1, A, x[b], 0, y[b]) (see the numerics note above). The
// kernel reads A only within its m×n elements, so A may end exactly at
// the end of a mapping.
func GemvBatch(workers, m, n, batch int, a, x, y, panels []float32) {
	gemvBatch(useAVX2, workers, m, n, batch, a, x, y, panels)
}

// gemvBatch is GemvBatch with the tile implementation chosen by the
// caller: asm selects the AVX2 kernel (valid only where useAVX2 holds),
// otherwise the portable twin runs. Tests drive both.
func gemvBatch(asm bool, workers, m, n, batch int, a, x, y, panels []float32) {
	if len(a) < m*n || len(x) < batch*n || len(y) < batch*m || len(panels) < PanelLen(batch, n) {
		panic(fmt.Sprintf("tensor: gemv batch buffer too small for m=%d n=%d batch=%d (len a=%d x=%d y=%d panels=%d)",
			m, n, batch, len(a), len(x), len(y), len(panels)))
	}
	if n == 0 {
		clear(y[:batch*m])
		return
	}
	packPanels(batch, n, x, panels)
	tiles := (m + batchRows - 1) / batchRows
	if workers <= 1 || tiles <= 1 {
		// Serial fast path: no closure, so the call allocates nothing.
		gemvBatchRows(asm, 0, m, m, n, batch, a, y, panels)
		return
	}
	ParallelRows(workers, tiles, func(lo, hi int) {
		gemvBatchRows(asm, lo*batchRows, min(hi*batchRows, m), m, n, batch, a, y, panels)
	})
}

// packPanels writes x (batch×n) transposed into panels of batchLanes
// samples: panel p holds, for each input k, x[p·batchLanes+l][k] at
// p·batchLanes·n + k·batchLanes + l. Lanes past the batch are zeroed,
// so the kernel never multiplies stale scratch.
func packPanels(batch, n int, x, panels []float32) {
	for p := 0; p*batchLanes < batch; p++ {
		panel := panels[p*batchLanes*n : (p+1)*batchLanes*n]
		lanes := min(batchLanes, batch-p*batchLanes)
		for l := 0; l < lanes; l++ {
			row := x[(p*batchLanes+l)*n : (p*batchLanes+l+1)*n]
			for k, v := range row {
				panel[k*batchLanes+l] = v
			}
		}
		for l := lanes; l < batchLanes; l++ {
			for k := 0; k < n; k++ {
				panel[k*batchLanes+l] = 0
			}
		}
	}
}

// gemvBatchRows computes output rows [r0, r1) of m for the whole
// batch: full row tiles through the tile kernel, then the r1−r0 mod
// batchRows leftover rows one at a time through the portable one-row
// path.
func gemvBatchRows(asm bool, r0, r1, m, n, batch int, a, y, panels []float32) {
	var acc [batchRows * batchLanes]float32
	r := r0
	for ; r+batchRows <= r1; r += batchRows {
		w := a[r*n : (r+batchRows)*n]
		for p := 0; p*batchLanes < batch; p++ {
			panel := panels[p*batchLanes*n : (p+1)*batchLanes*n]
			if asm {
				tile4x8(w, n, panel, &acc)
			} else {
				tileGo(w, batchRows, n, panel, acc[:])
			}
			scatterTile(acc[:], batchRows, r, m, p, batch, y)
		}
	}
	for ; r < r1; r++ {
		w := a[r*n : (r+1)*n]
		for p := 0; p*batchLanes < batch; p++ {
			tileGo(w, 1, n, panels[p*batchLanes*n:(p+1)*batchLanes*n], acc[:batchLanes])
			scatterTile(acc[:batchLanes], 1, r, m, p, batch, y)
		}
	}
}

// scatterTile stores a rows×batchLanes accumulator tile for weight rows
// starting at r and panel p into y (batch×m), dropping the pad lanes.
func scatterTile(acc []float32, rows, r, m, p, batch int, y []float32) {
	lanes := min(batchLanes, batch-p*batchLanes)
	for i := 0; i < rows; i++ {
		for l := 0; l < lanes; l++ {
			y[(p*batchLanes+l)*m+r+i] = acc[i*batchLanes+l]
		}
	}
}

// tileGo is the portable twin of the AVX2 tile: for rows consecutive
// weight rows of w (n floats each) and the batchLanes samples of one
// panel, acc[i·batchLanes+l] receives the dot product of row i and
// lane l, formed exactly as Gemv forms it. Each product is converted to
// float32 explicitly, which forbids the compiler from fusing it into a
// multiply-add (the Go spec allows fusion otherwise, and arm64 and
// GOAMD64=v3 builds do it).
func tileGo(w []float32, rows, n int, panel, acc []float32) {
	for i := 0; i < rows; i++ {
		row := w[i*n : (i+1)*n]
		var sum [batchLanes]float32
		j := 0
		for ; j+4 <= n; j += 4 {
			w0, w1, w2, w3 := row[j], row[j+1], row[j+2], row[j+3]
			x := panel[j*batchLanes : (j+4)*batchLanes]
			for l := range sum {
				sum[l] += float32(w0*x[l]) + float32(w1*x[batchLanes+l]) + float32(w2*x[2*batchLanes+l]) + float32(w3*x[3*batchLanes+l])
			}
		}
		for ; j < n; j++ {
			wj := row[j]
			x := panel[j*batchLanes : (j+1)*batchLanes]
			for l := range sum {
				sum[l] += float32(wj * x[l])
			}
		}
		copy(acc[i*batchLanes:(i+1)*batchLanes], sum[:])
	}
}

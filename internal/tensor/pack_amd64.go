//go:build !purego

package tensor

// tile6x16 runs the AVX2 tile: kcLen k steps of the packed A tile pa
// (packMR floats per step) against panel (packNR floats per step),
// seeded from and stored back to the packMR×packNR tile of c at row
// stride ldc.
func tile6x16(kcLen int, pa, panel, c []float32, ldc int) {
	_ = pa[packMR*kcLen-1]
	_ = panel[packNR*kcLen-1]
	_ = c[(packMR-1)*ldc+packNR-1]
	tile6x16AVX2(kcLen, &pa[0], &panel[0], &c[0], ldc)
}

// tile6x16AVX2 is implemented in pack_amd64.s. Element (i, j) of the
// tile is formed exactly as tile6x16Go forms it.
//
//go:noescape
func tile6x16AVX2(kcLen int, pa, panel, c *float32, ldc int)

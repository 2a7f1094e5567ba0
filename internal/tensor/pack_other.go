//go:build !amd64 || purego

package tensor

// tile6x16 is never called when useAVX2 is false; it exists so that
// gemmPackedRange compiles on every platform.
func tile6x16(kcLen int, pa, panel, c []float32, ldc int) {
	tile6x16Go(kcLen, pa, panel, c, ldc)
}

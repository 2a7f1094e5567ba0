//go:build !amd64 || purego

package tensor

// useAVX2 is false off amd64 and under the purego tag: GemvBatch runs
// the portable twin.
const useAVX2 = false

// tile4x8 is never called when useAVX2 is false; it exists so that
// gemvBatch compiles on every platform.
func tile4x8(w []float32, n int, panel []float32, acc *[batchRows * batchLanes]float32) {
	tileGo(w, batchRows, n, panel, acc[:])
}

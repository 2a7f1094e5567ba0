package tensor

import "math"

// ReLU applies max(0, x) in place.
func ReLU(x []float32) {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
}

// ReLUGrad writes dx = dy where x > 0, else 0.
func ReLUGrad(x, dy, dx []float32) {
	for i := range x {
		if x[i] > 0 {
			dx[i] = dy[i]
		} else {
			dx[i] = 0
		}
	}
}

// Tanh applies tanh element-wise in place.
func Tanh(x []float32) {
	for i, v := range x {
		x[i] = float32(math.Tanh(float64(v)))
	}
}

// HardTanh clamps values to [-1, 1] in place (SENNA's non-linearity).
func HardTanh(x []float32) {
	for i, v := range x {
		if v > 1 {
			x[i] = 1
		} else if v < -1 {
			x[i] = -1
		}
	}
}

// Sigmoid applies the logistic function element-wise in place.
func Sigmoid(x []float32) {
	for i, v := range x {
		x[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
}

// Softmax converts each row of an m×n row-major matrix into a
// probability distribution, using the max-subtraction trick for
// numerical stability.
func Softmax(m, n int, x []float32) {
	for i := 0; i < m; i++ {
		row := x[i*n : (i+1)*n]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxv))
			row[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range row {
			row[j] *= inv
		}
	}
}

// LogSoftmax writes log-probabilities for each row of an m×n matrix.
func LogSoftmax(m, n int, x []float32) {
	for i := 0; i < m; i++ {
		row := x[i*n : (i+1)*n]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxv))
		}
		lse := float32(math.Log(sum)) + maxv
		for j := range row {
			row[j] -= lse
		}
	}
}

// Argmax returns the index of the largest element of x.
func Argmax(x []float32) int {
	best, bi := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// Sum returns the sum of all elements.
func Sum(x []float32) float32 {
	var s float32
	for _, v := range x {
		s += v
	}
	return s
}

// MaxAbs returns the largest absolute value in x, or 0 for empty input.
func MaxAbs(x []float32) float32 {
	var m float32
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// AddBias adds bias[j] to every element of column j in an m×n row-major
// matrix (the fully-connected case; convolution adds its per-channel
// bias in GemmPacked's EpBiasRow epilogue).
func AddBias(m, n int, x, bias []float32) {
	for i := 0; i < m; i++ {
		row := x[i*n : (i+1)*n]
		for j := range row {
			row[j] += bias[j]
		}
	}
}

// AddBiasReLU is the fused epilogue max(0, x+bias) with column bias: one
// pass over the output instead of a bias pass plus a separate ReLU
// layer's copy-and-clamp. Element values are bit-identical to AddBias
// followed by ReLU (same add, then the same compare-against-zero).
func AddBiasReLU(m, n int, x, bias []float32) {
	for i := 0; i < m; i++ {
		row := x[i*n : (i+1)*n]
		for j := range row {
			v := row[j] + bias[j]
			if v < 0 {
				v = 0
			}
			row[j] = v
		}
	}
}

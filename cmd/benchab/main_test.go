package main

import "testing"

// TestQuartiles holds quartiles to Python's statistics.quantiles(n=4),
// the method the benchmark's driver judges spreads with.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 10}, [3]float64{1, 2, 10}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		if got := quartiles(tc.in); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.25}
	higher := metricDef{Name: "throughput_qps", Better: "higher", Bound: 0.25}
	for _, tc := range []struct {
		name      string
		m         metricDef
		ref, tree [3]float64 // Q1, median, Q3
		wins, n   int
		want      string
	}{
		{"clear gain", lower, [3]float64{8, 9, 10}, [3]float64{2.4, 2.5, 2.6}, 10, 10, "claimable"},
		{"gain inside the reference's spread", lower, [3]float64{8, 9, 10}, [3]float64{7.9, 8, 8.1}, 10, 10, "within bound"},
		{"too few wins", lower, [3]float64{8.9, 9, 9.1}, [3]float64{7.9, 8, 8.1}, 8, 10, "within bound"},
		{"nine wins of ten", higher, [3]float64{99, 100, 101}, [3]float64{119, 120, 121}, 9, 10, "claimable"},
		{"eight wins and two ties of ten", higher, [3]float64{99, 100, 101}, [3]float64{119, 120, 121}, 8, 10, "within bound"},
		{"worse beyond the bound", higher, [3]float64{99, 100, 101}, [3]float64{69, 70, 71}, 0, 10, "REGRESSED"},
		{"worse inside the bound", higher, [3]float64{99, 100, 101}, [3]float64{89, 90, 91}, 0, 10, "within bound"},
		{"spread wider than the bound", lower, [3]float64{80, 100, 120}, [3]float64{99, 100, 101}, 5, 10, "unresolved"},
	} {
		if got := verdict(tc.m, tc.ref, tc.tree, tc.wins, tc.n); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}

package tensor

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// heapGrowth returns how much HeapAlloc rises across f, collecting
// first so earlier garbage does not count.
func heapGrowth(f func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestNewParamOffHeap: a parameter tensor of at least minMappedBytes
// costs the Go heap only its header and comes back zeroed and
// writable; one float smaller, it is an ordinary heap slice.
func TestNewParamOffHeap(t *testing.T) {
	if !mapsParams {
		t.Skip("NewParam has no mapping on this platform")
	}
	var big *Tensor
	if d := heapGrowth(func() { big = NewParam(4096, 4096) }); d >= 1<<20 {
		t.Fatalf("a 64 MiB parameter raised HeapAlloc by %d bytes, want < 1 MiB", d)
	}
	if big.Len() != 4096*4096 || !big.SameShape(New(4096, 4096)) {
		t.Fatalf("shape %v, %d elements", big.Shape(), big.Len())
	}
	data := big.Data()
	for i, v := range data {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
		data[i] = float32(i)
	}
	for i, v := range data {
		if v != float32(i) {
			t.Fatalf("element %d reads %v after writing %d", i, v, i)
		}
	}
	runtime.KeepAlive(big)

	const cut = minMappedBytes / 4
	var small, edge *Tensor
	if d := heapGrowth(func() { small = NewParam(cut - 1) }); d < 4*(cut-1) {
		t.Errorf("a %d-float parameter raised HeapAlloc by %d bytes, want it on the heap", cut-1, d)
	}
	if d := heapGrowth(func() { edge = NewParam(cut) }); d >= 1<<10 {
		t.Errorf("a %d-float parameter raised HeapAlloc by %d bytes, want it mapped", cut, d)
	}
	runtime.KeepAlive(small)
	runtime.KeepAlive(edge)
}

// TestNewParamUnmapsWhenUnreachable: once its tensor is garbage, a
// mapped parameter's pages are returned to the system.
func TestNewParamUnmapsWhenUnreachable(t *testing.T) {
	if !mapsParams {
		t.Skip("NewParam has no mapping on this platform")
	}
	if _, err := os.Stat("/proc/self/maps"); err != nil {
		t.Skip("no /proc/self/maps to read mappings from")
	}
	addr := func() uintptr {
		p := NewParam(minMappedBytes / 4)
		return uintptr(unsafe.Pointer(&p.Data()[0]))
	}()
	// mapped reports whether any mapping covers addr. The kernel may
	// merge the parameter's mapping with a neighbour, so look for
	// containment, not for a mapping that starts there.
	mapped := func() bool {
		b, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			var lo, hi uintptr
			if _, err := fmt.Sscanf(line, "%x-%x", &lo, &hi); err == nil && lo <= addr && addr < hi {
				return true
			}
		}
		return false
	}
	if !mapped() {
		t.Fatalf("no mapping covers %#x", addr)
	}
	for deadline := time.Now().Add(10 * time.Second); mapped(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("mapping at %#x still present after its tensor became garbage", addr)
		}
		runtime.GC()
	}
}

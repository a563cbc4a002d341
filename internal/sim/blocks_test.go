package sim

import (
	"slices"
	"testing"
)

// TestColdAllocBlocks checks the block growth policy: blocks of 8, then
// as many objects as all blocks before them, up to Max; every object
// carved is distinct and zeroed.
func TestColdAllocBlocks(t *testing.T) {
	var sizes []int
	b := Blocks[[2]int]{
		Make: func(n int) [][2]int { sizes = append(sizes, n); return make([][2]int, n) },
		Max:  24,
	}
	seen := map[*[2]int]bool{}
	for i := 0; i < 100; i++ {
		p := b.New()
		if seen[p] || *p != [2]int{} {
			t.Fatalf("object %d is reused or not zeroed", i)
		}
		seen[p] = true
		p[0] = i
	}
	if want := []int{8, 8, 16, 24, 24, 24}; !slices.Equal(sizes, want) {
		t.Errorf("block sizes %v, want %v", sizes, want)
	}
}

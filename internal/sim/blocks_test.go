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

// TestColdAllocBlocksNewFor checks the counted path: a block NewFor
// starts holds exactly the objects the caller said it still takes, the
// current block is used up first, and an exhausted count falls back to
// New's growth.
func TestColdAllocBlocksNewFor(t *testing.T) {
	var sizes []int
	b := Blocks[int]{
		Make: func(n int) []int { sizes = append(sizes, n); return make([]int, n) },
		Max:  24,
	}
	b.New() // a block of 8, 7 left in it
	for left := 10; left > 0; left-- {
		b.NewFor(left) // 7 from the current block, then one block of 3
	}
	b.NewFor(0) // the count is used up: New's next block
	if want := []int{8, 3, 11}; !slices.Equal(sizes, want) {
		t.Errorf("block sizes %v, want %v", sizes, want)
	}
}

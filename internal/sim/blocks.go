package sim

// Blocks carves objects out of blocks, for free lists whose size follows
// the traffic: a WR, packet, switch-queue entry, delivery or ODP
// registrant pool that finds its free list empty takes a fresh object
// from here instead of allocating one. Each block is one allocation;
// the first holds blockFirst objects, each later one as many as all
// blocks before it (doubling the total), capped at Max. A cold run that
// needs N objects therefore allocates about N/Max blocks plus a few
// small ones, and its unused tail is at most one block. A builder that
// knows how many objects it is about to take carves them with NewFor
// instead: one block of exactly that many, with no unused tail.
//
// Make allocates the blocks, so heap profiles charge them to the
// caller's package, as with Arena members. Carved objects are never
// returned here: callers keep them on their own free lists.
type Blocks[T any] struct {
	// Make returns n zeroed objects in one allocation: make([]T, n).
	// Set it, and Max, before the first New.
	Make func(n int) []T
	// Max caps the objects per block.
	Max int

	block []T
	made  int
}

// blockFirst is the length of a pool's first block: a pool that never
// needs more than a handful of objects leaves at most this many unused.
const blockFirst = 8

// New returns a zeroed object carved from the current block, starting a
// new block when it is used up.
func (b *Blocks[T]) New() *T {
	if len(b.block) == 0 {
		b.block = b.Make(min(max(b.made, blockFirst), b.Max))
	}
	t := &b.block[0]
	b.block = b.block[1:]
	b.made++
	return t
}

// NewFor is New for a caller that still expects to take left objects,
// this one included: a block it has to start holds exactly left objects
// (New's policy when left is not positive, the caller's count being
// used up).
func (b *Blocks[T]) NewFor(left int) *T {
	if len(b.block) == 0 && left > 0 {
		b.block = b.Make(left)
	}
	return b.New()
}

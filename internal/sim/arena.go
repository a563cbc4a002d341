package sim

// Arena hands out objects by engine generation, for storage that holds
// per-run objects in an engine's Aux: every member taken in an earlier
// generation is free again after a Reset (Reset asserts no run is live),
// so a trial loop that rebuilds its model on a reused engine takes the
// previous trial's objects back in the order it first took them. An
// object taken from an arena is valid until the engine's next Reset.
// Generations are counted by Reset and seen only here: every per-trial
// pool in the simulator is an Arena.
//
// Members are linked through a field of their own, which Link returns
// the address of, so growing the arena allocates only the new member —
// and the caller allocates it, so heap profiles charge it to the
// caller's package.
type Arena[T any] struct {
	// Link returns the address of a member's link field. Set it before
	// the first Take.
	Link func(*T) **T

	gen              uint64 // the engine's resets+1 when next was last rewound
	head, tail, next *T
}

// ArenaOn returns the arena e's Aux holds under key, creating it with
// link on first use.
func ArenaOn[T any](e *Engine, key string, link func(*T) **T) *Arena[T] {
	a, _ := e.Aux(key).(*Arena[T])
	if a == nil {
		a = &Arena[T]{Link: link}
		e.SetAux(key, a)
	}
	return a
}

// Take returns the next member free in e's current generation, still
// holding the state its previous run left, or nil when every member is
// taken; the caller then allocates one and passes it to Add.
func (a *Arena[T]) Take(e *Engine) *T {
	if gen := e.resets + 1; a.gen != gen {
		a.gen, a.next = gen, a.head
	}
	t := a.next
	if t != nil {
		a.next = *a.Link(t)
	}
	return t
}

// Add appends a newly allocated member, taken in the current generation.
// Call it only after Take returned nil.
func (a *Arena[T]) Add(t *T) {
	if a.tail == nil {
		a.head = t
	} else {
		*a.Link(a.tail) = t
	}
	a.tail = t
}

// Package fifo provides the first-in first-out queue the simulator's
// work, completion and request queues share.
//
// Popping by reslicing (q = q[1:]) never reuses the freed front of the
// backing array, so a queue that sees steady traffic keeps reallocating
// as append runs out of tail capacity. Queue instead keeps a head index
// into one backing slice: popped slots are zeroed (so the garbage
// collector does not see stale pointers), the storage is reused from the
// start once the queue drains, and the live elements are moved to the
// front once the head passes half the length. A queue whose length stays
// bounded therefore stops allocating after it first reaches that bound.
package fifo

// Queue is a FIFO of T. The zero value is an empty queue ready to use.
type Queue[T any] struct {
	buf  []T // buf[head:] are the queued elements, front first
	head int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Cap returns how many elements the queue's storage holds before Push
// must grow it.
func (q *Queue[T]) Cap() int { return cap(q.buf) }

// Use makes buf the storage of an empty queue, so a holder that carves
// small first arrays from a block (a QP's send queues) starts its queue
// there instead of letting Push allocate one; Push grows past buf as
// usual. buf's contents are ignored. It panics on a non-empty queue.
func (q *Queue[T]) Use(buf []T) {
	if q.Len() > 0 {
		panic("fifo: Use on a non-empty queue")
	}
	q.buf, q.head = buf[:0], 0
}

// Push appends v at the back.
func (q *Queue[T]) Push(v T) { q.buf = append(q.buf, v) }

// Reserve makes room for n more elements behind the queued ones, so the
// next n Pushes do not allocate. It first reuses the dead prefix before
// the head, moving the queued elements to the front in order, and
// reallocates only when that is not enough. A holder whose queue depth
// is known up front calls it once instead of letting Push double the
// storage on its way there.
func (q *Queue[T]) Reserve(n int) {
	if cap(q.buf)-len(q.buf) >= n {
		return
	}
	live := q.buf[q.head:]
	if cap(q.buf)-len(live) >= n {
		m := copy(q.buf, live)
		clear(q.buf[m:])
		q.buf = q.buf[:m]
	} else {
		buf := make([]T, len(live), len(live)+n)
		copy(buf, live)
		q.buf = buf
	}
	q.head = 0
}

// Front returns the front element without removing it. It panics on an
// empty queue.
func (q *Queue[T]) Front() T { return q.buf[q.head] }

// Pop removes and returns the front element. It panics on an empty
// queue.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	q.settle()
	return v
}

// PopInto moves up to len(dst) elements from the front into dst, front
// first, and returns how many it moved.
func (q *Queue[T]) PopInto(dst []T) int {
	n := copy(dst, q.buf[q.head:])
	clear(q.buf[q.head : q.head+n])
	q.head += n
	q.settle()
	return n
}

// Items returns the queued elements, front first. The slice aliases the
// queue's storage: writes through it update the queued elements, and it
// is valid only until the next Push, Pop, PopInto or Clear.
func (q *Queue[T]) Items() []T { return q.buf[q.head:] }

// Clear empties the queue, keeping its storage.
func (q *Queue[T]) Clear() {
	clear(q.buf)
	q.buf = q.buf[:0]
	q.head = 0
}

// settle restores the storage invariants after a pop: a drained queue
// restarts at the front of its storage, and once the head passes half
// the length the live elements move to the front, so the dead prefix
// never outgrows the live tail and append finds its capacity again.
func (q *Queue[T]) settle() {
	switch {
	case q.head == len(q.buf):
		q.buf = q.buf[:0]
		q.head = 0
	case q.head > len(q.buf)/2:
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
}

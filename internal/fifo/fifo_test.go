package fifo

import (
	"math/rand"
	"testing"
)

// TestQueueMatchesSliceModel drives a Queue and a plain slice through
// the same random push/pop/front/index/range/PopInto/Clear sequence —
// long enough to grow the storage several times and to cross the
// compaction threshold over and over — and requires identical contents
// after every step.
func TestQueueMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue[int]
		var model []int
		next := 0
		for step := 0; step < 5000; step++ {
			// Bias toward pushes early and pops late so the queue
			// both grows past several capacities and drains fully.
			pushBias := 55
			if step > 3000 {
				pushBias = 40
			}
			switch op := rng.Intn(100); {
			case op < pushBias:
				for n := 1 + rng.Intn(4); n > 0; n-- {
					q.Push(next)
					model = append(model, next)
					next++
				}
			case op < pushBias+25:
				if len(model) == 0 {
					continue
				}
				if got := q.Front(); got != model[0] {
					t.Fatalf("seed %d step %d: Front = %d, want %d", seed, step, got, model[0])
				}
				if got := q.Pop(); got != model[0] {
					t.Fatalf("seed %d step %d: Pop = %d, want %d", seed, step, got, model[0])
				}
				model = model[1:]
			case op < pushBias+35:
				dst := make([]int, rng.Intn(6))
				n := q.PopInto(dst)
				want := min(len(dst), len(model))
				if n != want {
					t.Fatalf("seed %d step %d: PopInto moved %d, want %d", seed, step, n, want)
				}
				for i := 0; i < n; i++ {
					if dst[i] != model[i] {
						t.Fatalf("seed %d step %d: PopInto[%d] = %d, want %d", seed, step, i, dst[i], model[i])
					}
				}
				model = model[n:]
			case op < pushBias+42:
				// Write through the Items view, as the UCX completion
				// table does.
				if len(model) == 0 {
					continue
				}
				i := rng.Intn(len(model))
				q.Items()[i] = -model[i]
				model[i] = -model[i]
			case op < 99:
				// Index into and range over the view.
				if len(model) > 0 {
					i := rng.Intn(len(model))
					if got := q.Items()[i]; got != model[i] {
						t.Fatalf("seed %d step %d: Items()[%d] = %d, want %d", seed, step, i, got, model[i])
					}
				}
			default:
				q.Clear()
				model = model[:0]
			}
			if q.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, q.Len(), len(model))
			}
			j := 0
			for _, v := range q.Items() {
				if v != model[j] {
					t.Fatalf("seed %d step %d: range item %d = %d, want %d", seed, step, j, v, model[j])
				}
				j++
			}
			checkInvariants(t, &q)
		}
	}
}

// checkInvariants verifies the storage rules: the dead prefix never
// exceeds half the length, and every slot outside the live window is
// zero, so popped elements are not kept reachable.
func checkInvariants(t *testing.T, q *Queue[int]) {
	t.Helper()
	if q.head > len(q.buf)/2 {
		t.Fatalf("head %d passed half the length %d without compacting", q.head, len(q.buf))
	}
	for i, v := range q.buf[:q.head] {
		if v != 0 {
			t.Fatalf("popped slot %d still holds %d", i, v)
		}
	}
	for i, v := range q.buf[len(q.buf):cap(q.buf)] {
		if v != 0 {
			t.Fatalf("spare slot %d holds %d", len(q.buf)+i, v)
		}
	}
}

// TestQueueReusesStorage checks the property the simulator relies on: a
// queue whose length stays bounded stops allocating once it has grown to
// that bound, whether it drains between bursts or slides steadily.
func TestQueueReusesStorage(t *testing.T) {
	var q Queue[*int]
	v := new(int)
	burst := func() {
		for i := 0; i < 64; i++ {
			q.Push(v)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	slide := func() {
		for i := 0; i < 256; i++ {
			q.Push(v)
			if q.Len() > 48 {
				q.Pop()
			}
		}
	}
	burst()
	slide()
	if a := testing.AllocsPerRun(100, burst); a != 0 {
		t.Errorf("drain-and-refill allocates %.1f per burst, want 0", a)
	}
	if a := testing.AllocsPerRun(100, slide); a != 0 {
		t.Errorf("sliding window allocates %.1f per run, want 0", a)
	}
}

// TestQueueReserve reserves room on a queue whose head is past its
// first slot, once where the dead prefix makes enough room and once
// where the storage must grow: the queued elements stay in order, and
// pushes within the reserved room allocate nothing.
func TestQueueReserve(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
	}{
		{"dead prefix", 3},
		{"grown storage", 64},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Two identical queues: AllocsPerRun's warm-up call pushes
			// onto the first, its measured call onto the second.
			var qs [2]Queue[int]
			for k := range qs {
				q := &qs[k]
				for i := 1; i <= 8; i++ {
					q.Push(i)
				}
				for i := 0; i < 3; i++ {
					q.Pop()
				}
				if q.head == 0 {
					t.Fatal("setup left the head at the front")
				}
				q.Reserve(c.n)
				checkInvariants(t, q)
			}
			k := 0
			allocs := testing.AllocsPerRun(1, func() {
				q := &qs[k]
				k++
				for i := 0; i < c.n; i++ {
					q.Push(100 + i)
				}
			})
			if allocs != 0 {
				t.Errorf("%d pushes after Reserve(%d) allocate %.0f, want 0", c.n, c.n, allocs)
			}
			for k := range qs {
				got := qs[k].Items()
				if len(got) != 5+c.n {
					t.Fatalf("queue %d holds %d elements, want %d", k, len(got), 5+c.n)
				}
				for i, v := range got {
					want := 4 + i
					if i >= 5 {
						want = 100 + i - 5
					}
					if v != want {
						t.Fatalf("queue %d element %d = %d, want %d", k, i, v, want)
					}
				}
				checkInvariants(t, &qs[k])
			}
		})
	}
}

// TestQueueUse checks a queue started on given storage: pushes fill that
// storage in place without allocating, the queue grows past it like one
// started from empty, a Clear keeps whichever storage it last had, and
// Use on a non-empty queue panics.
func TestQueueUse(t *testing.T) {
	var chunk [4]int
	var q Queue[int]
	q.Use(chunk[:])
	if q.Len() != 0 || q.Cap() != len(chunk) {
		t.Fatalf("after Use: len %d cap %d, want 0 and %d", q.Len(), q.Cap(), len(chunk))
	}
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < len(chunk); i++ {
			q.Push(i)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}); n != 0 {
		t.Fatalf("pushes within the given storage allocate %v", n)
	}
	for i := 0; i < 10; i++ {
		q.Push(i)
	}
	if chunk[0] != 0 || chunk[3] != 3 || q.Cap() <= len(chunk) {
		t.Fatalf("the queue did not fill its chunk first and then grow past it: chunk %v, cap %d", chunk, q.Cap())
	}
	for i := 0; i < 10; i++ {
		if got := q.Pop(); got != i {
			t.Fatalf("pop %d = %d", i, got)
		}
	}
	q.Push(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Use on a non-empty queue did not panic")
		}
	}()
	q.Use(chunk[:])
}

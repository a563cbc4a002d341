package sim

import "fmt"

// procAbort is the panic value used to unwind a process goroutine when the
// simulation shuts down while the process is parked (Engine.Shutdown).
type procAbort struct{}

// Proc is a simulated process: a goroutine whose execution is interleaved
// with the event loop so that at most one thing (the loop or exactly one
// process) runs at a time. This gives blocking-style code — sleeps, waits
// — with fully deterministic scheduling.
type Proc struct {
	eng  *Engine
	name string
	// tok is the control-transfer token. Because exactly one side (the
	// event loop or the process) runs at any time, a single unbuffered
	// channel serves both directions: the loop sends to resume the
	// process, the process sends to signal it parked or finished.
	tok   chan struct{}
	done  bool
	abort bool
	// wakeFn is the cached unblock-and-resume callback, so sleeps and
	// broadcasts schedule it without allocating a closure per wake.
	wakeFn func()
	// prev and next link the engine's live processes (Engine.live), so
	// Shutdown can find the ones still parked.
	prev, next *Proc
}

// Name returns the name given to Go.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Go starts fn as a simulated process named name. The process begins
// running at the current virtual time (scheduled as an event). fn runs in
// its own goroutine but only while the event loop is handing it control,
// so no synchronization with other simulation state is needed.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		eng:  e,
		name: name,
		tok:  make(chan struct{}),
	}
	p.wakeFn = func() {
		p.eng.blocked--
		p.run()
	}
	e.procs++
	p.next = e.live
	if e.live != nil {
		e.live.prev = p
	}
	e.live = p
	go p.main(fn)
	// The start event pairs with the increment so blocked is unchanged
	// once the process actually begins running.
	e.blocked++
	e.after(0, p.wakeFn)
	return p
}

// main is the process goroutine's body. A process unwound by Shutdown
// exits through the same path as one whose fn returned.
func (p *Proc) main(fn func(p *Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procAbort); !ok {
				panic(r)
			}
		}
		p.exit()
		p.tok <- struct{}{}
	}()
	<-p.tok // wait for the start event
	if p.abort {
		return // shut down before it ever ran
	}
	fn(p)
}

// exit retires a finished or aborted process from the engine's live set.
func (p *Proc) exit() {
	p.done = true
	e := p.eng
	e.procs--
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		e.live = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	}
	p.prev, p.next = nil, nil
}

// run hands control to the process goroutine and blocks the event loop
// until the process parks (sleeps/waits) or finishes.
func (p *Proc) run() {
	if p.done || p.abort {
		return
	}
	p.tok <- struct{}{}
	<-p.tok
}

// park returns control to the event loop and blocks until the loop
// resumes this process.
func (p *Proc) park() {
	p.tok <- struct{}{}
	<-p.tok
	if p.abort {
		panic(procAbort{})
	}
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.eng.blocked++
	p.eng.after(d, p.wakeFn)
	p.park()
}

// Cond is a broadcast condition. Two kinds of waiter park on it in one
// list, in the order they began waiting: processes (Proc.Wait,
// Proc.WaitTimeout) and callbacks (Notify). A client that never blocks
// between events, such as an open-loop poster or a CQ reaper, parks a
// callback and pays no goroutine hand-off per wake. The zero value is
// not usable; create with NewCond.
type Cond struct {
	eng     *Engine
	waiters []waiter
}

// waiter is one parked process (p) or one parked callback (fn).
type waiter struct {
	p  *Proc
	fn func()
}

// NewCond creates a condition bound to engine e.
func NewCond(e *Engine) *Cond { return &Cond{eng: e} }

// Reset returns the condition to NewCond(e)'s state, keeping the waiter
// list's storage, for holders that recycle a Cond across engine
// Resets. It drops parked callbacks (Engine.Reset already forgot their
// count) and also clears the storage past the list's end, where
// Broadcast leaves the previous run's waiters.
func (c *Cond) Reset(e *Engine) {
	clear(c.waiters[:cap(c.waiters)])
	c.waiters = c.waiters[:0]
	c.eng = e
}

// Broadcast wakes every waiter currently parked on the condition. Each
// runs as an event at the current instant, in the order they began
// waiting: a process resumes (and re-checks its predicate), a callback
// is called once and forgotten.
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = c.waiters[:0]
	for _, w := range ws {
		if w.p != nil {
			c.eng.after(0, w.p.wakeFn)
		} else {
			c.eng.parked--
			c.eng.after(0, w.fn)
		}
	}
}

// Notify parks fn on the condition until the next Broadcast, which
// schedules it at that instant in wait order. It is Wait for code that
// runs as event callbacks instead of a process: fn re-checks its own
// condition and calls Notify again if it must keep waiting. A parked
// callback counts as a parked waiter for MustRun, so a client that is
// never woken is reported like a stuck process.
func (c *Cond) Notify(fn func()) {
	c.waiters = append(c.waiters, waiter{fn: fn})
	c.eng.parked++
}

// Wait parks the process until pred() is true, re-checking after every
// Broadcast. pred is evaluated with the event loop paused, so it may read
// any simulation state.
func (p *Proc) Wait(c *Cond, pred func() bool) {
	for !pred() {
		c.waiters = append(c.waiters, waiter{p: p})
		p.eng.blocked++
		p.park()
	}
}

// WaitTimeout is like Wait but gives up after d, reporting whether the
// predicate became true.
func (p *Proc) WaitTimeout(c *Cond, d Time, pred func() bool) bool {
	deadline := p.eng.Now() + d
	for !pred() {
		if p.eng.Now() >= deadline {
			return false
		}
		woke := false
		c.waiters = append(c.waiters, waiter{p: p})
		p.eng.blocked++
		t := p.eng.At(deadline, func() {
			// Wake only if still waiting: a Broadcast at the deadline
			// instant may already have dequeued us and queued our wakeFn,
			// and a second resume would return a later park early.
			for i, w := range c.waiters {
				if w.p == p {
					c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
					p.eng.blocked--
					woke = true
					p.run()
					return
				}
			}
		})
		p.park()
		if !woke {
			t.Cancel()
		}
	}
	return true
}

// Shutdown unwinds every live process: each parked one resumes with its
// blocking call (Sleep, Wait, WaitTimeout) panicking inside its
// own goroutine, so its deferred calls run and the goroutine exits, and
// a process whose start event never fired exits without running. Call
// it once a run is over and daemon processes (server loops that park
// forever) are still parked; it releases their goroutines and
// everything they reference, and lets the engine be Reset. Events
// still queued to resume an unwound process do nothing. Shutdown must
// not be called from inside a process.
func (e *Engine) Shutdown() {
	for e.live != nil {
		p := e.live
		p.abort = true
		p.tok <- struct{}{}
		<-p.tok
	}
}

// MustRun runs the simulation and panics if it ends with live processes
// or Notify callbacks still parked (a deadlock in the modelled system).
func (e *Engine) MustRun() {
	e.Run()
	if e.procs > 0 || e.parked > 0 {
		panic(fmt.Sprintf("sim: deadlock, %d process(es) and %d callback(s) parked forever at %v", e.procs, e.parked, e.now))
	}
}

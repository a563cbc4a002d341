package sim

import "testing"

func TestProcSleep(t *testing.T) {
	e := New(1)
	var wake []Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		wake = append(wake, p.Now())
		p.Sleep(5 * Microsecond)
		wake = append(wake, p.Now())
	})
	e.MustRun()
	if len(wake) != 2 || wake[0] != 10*Microsecond || wake[1] != 15*Microsecond {
		t.Errorf("wake = %v", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := New(1)
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(10)
		order = append(order, "a10")
		p.Sleep(20)
		order = append(order, "a30")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(15)
		order = append(order, "b15")
	})
	e.MustRun()
	want := []string{"a0", "b0", "a10", "b15", "a30"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcYield(t *testing.T) {
	e := New(1)
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a-before")
		p.Sleep(0)
		order = append(order, "a-after")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b")
	})
	e.MustRun()
	// a starts first, yields, b runs, then a resumes.
	want := []string{"a-before", "b", "a-after"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCondBroadcast(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	ready := false
	var sawAt Time
	e.Go("waiter", func(p *Proc) {
		p.Wait(c, func() bool { return ready })
		sawAt = p.Now()
	})
	e.Go("setter", func(p *Proc) {
		p.Sleep(100)
		ready = true
		c.Broadcast()
	})
	e.MustRun()
	if sawAt != 100 {
		t.Errorf("waiter woke at %v, want 100", sawAt)
	}
}

func TestCondSpuriousBroadcast(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	n := 0
	var doneAt Time
	e.Go("waiter", func(p *Proc) {
		p.Wait(c, func() bool { return n >= 3 })
		doneAt = p.Now()
	})
	e.Go("setter", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			n++
			c.Broadcast()
		}
	})
	e.MustRun()
	if doneAt != 30 {
		t.Errorf("waiter finished at %v, want 30 (predicate re-check)", doneAt)
	}
}

func TestCondMultipleWaiters(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	go_ := false
	woken := 0
	for i := 0; i < 5; i++ {
		e.Go("w", func(p *Proc) {
			p.Wait(c, func() bool { return go_ })
			woken++
		})
	}
	e.Go("setter", func(p *Proc) {
		p.Sleep(1)
		go_ = true
		c.Broadcast()
	})
	e.MustRun()
	if woken != 5 {
		t.Errorf("woken = %d, want 5", woken)
	}
}

func TestWaitTimeoutExpires(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	var ok bool
	var at Time
	e.Go("w", func(p *Proc) {
		ok = p.WaitTimeout(c, 50, func() bool { return false })
		at = p.Now()
	})
	e.MustRun()
	if ok {
		t.Error("WaitTimeout should have timed out")
	}
	if at != 50 {
		t.Errorf("timed out at %v, want 50", at)
	}
}

func TestWaitTimeoutSatisfied(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	ready := false
	var ok bool
	var at Time
	e.Go("w", func(p *Proc) {
		ok = p.WaitTimeout(c, 1000, func() bool { return ready })
		at = p.Now()
	})
	e.Go("s", func(p *Proc) {
		p.Sleep(20)
		ready = true
		c.Broadcast()
	})
	e.MustRun()
	if !ok {
		t.Error("WaitTimeout should have succeeded")
	}
	if at != 20 {
		t.Errorf("woke at %v, want 20", at)
	}
	// Ensure the cancelled deadline timer does not fire anything weird.
	if e.QueueLen() != 0 {
		e.Run()
	}
}

// TestWaitTimeoutBroadcastAtDeadline checks a Broadcast that runs at the
// deadline instant, before the deadline timer: the Broadcast dequeues the
// waiter and queues its wake, so the timer must not resume it a second
// time. A double resume would end the process's next Sleep at the
// deadline and leave the blocked count negative.
func TestWaitTimeoutBroadcastAtDeadline(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	e.At(10, c.Broadcast) // scheduled before the deadline timer
	var ok bool
	slept, blocked := Time(-1), 0
	e.Go("w", func(p *Proc) {
		ok = p.WaitTimeout(c, 10, func() bool { return false })
		p.Sleep(100)
		slept = p.Now()
		blocked = p.Engine().blocked
	})
	e.MustRun()
	if ok {
		t.Error("WaitTimeout reported success with a false predicate")
	}
	if slept != 110 {
		t.Errorf("Sleep(100) after the timeout returned at %v, want 110", slept)
	}
	if blocked != 0 || e.blocked != 0 {
		t.Errorf("blocked = %d after Sleep, %d after run, want 0, 0", blocked, e.blocked)
	}
}

func TestMustRunDeadlockPanics(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	e.Go("stuck", func(p *Proc) {
		p.Wait(c, func() bool { return false })
	})
	defer func() {
		if recover() == nil {
			t.Error("MustRun should panic on deadlock")
		}
	}()
	e.MustRun()
}

func TestProcDeterminism(t *testing.T) {
	run := func() []Time {
		e := New(99)
		var ts []Time
		for i := 0; i < 10; i++ {
			e.Go("p", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(e.Uniform(1, 1000))
					ts = append(ts, p.Now())
				}
			})
		}
		e.MustRun()
		return ts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestShutdownUnwindsParkedProcesses(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	var unwound []string
	e.Go("waiter", func(p *Proc) {
		defer func() { unwound = append(unwound, "waiter") }()
		p.Wait(c, func() bool { return false })
	})
	e.Go("sleeper", func(p *Proc) {
		defer func() { unwound = append(unwound, "sleeper") }()
		for {
			p.Sleep(Second)
		}
	})
	e.RunUntil(10 * Second)
	e.Go("unstarted", func(p *Proc) { t.Error("a process shut down before its start event ran") })
	e.Shutdown()
	if e.procs != 0 || e.live != nil {
		t.Fatalf("after Shutdown: %d live process(es)", e.procs)
	}
	if len(unwound) != 2 {
		t.Errorf("deferred calls ran for %v, want both parked processes", unwound)
	}
	e.Run() // the sleeper's queued wake-up must do nothing
	e.Reset(2)
	e.Shutdown() // nothing live: a no-op
}

func TestCondResetClearsStaleWaiters(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	e.Go("w", func(p *Proc) {
		n := 0
		p.Wait(c, func() bool { n++; return n > 1 })
	})
	e.Schedule(1, c.Broadcast)
	e.MustRun()
	full := c.waiters[:cap(c.waiters)]
	if len(full) == 0 || full[0].p == nil {
		t.Fatal("expected Broadcast to leave the woken process past the list's end")
	}
	e2 := New(2)
	c.Reset(e2)
	if c.eng != e2 || len(c.waiters) != 0 {
		t.Errorf("Reset left eng %p, %d waiters", c.eng, len(c.waiters))
	}
	for i, w := range c.waiters[:cap(c.waiters)] {
		if w.p != nil || w.fn != nil {
			t.Errorf("waiter storage slot %d still holds %+v", i, w)
		}
	}
}

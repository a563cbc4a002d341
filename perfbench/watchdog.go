package main

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"time"
)

// watchdog contains a runaway execution: when the heap outgrows its
// ceiling, an execution outlasts its time limit, or the whole run nears
// its deadline, it calls trip once, so the run reports a failed operation
// instead of being killed for memory or time. The simulation cannot be
// interrupted from outside, so trip is expected to end the process.
type watchdog struct {
	memCeiling  uint64        // heap object bytes
	execTimeout time.Duration // per execution
	deadline    time.Time     // whole run
	heapBytes   func() uint64
	trip        func(reason string)

	mu        sync.Mutex
	execStart time.Time // zero between executions
	tripped   bool
}

func heapObjectBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// begin and end bracket one execution for the time limit.
func (w *watchdog) begin() {
	w.mu.Lock()
	w.execStart = time.Now()
	w.mu.Unlock()
}

func (w *watchdog) end() {
	w.mu.Lock()
	w.execStart = time.Time{}
	w.mu.Unlock()
}

// check trips the watchdog if any ceiling is exceeded and reports whether
// it has tripped.
func (w *watchdog) check(now time.Time) bool {
	w.mu.Lock()
	if w.tripped {
		w.mu.Unlock()
		return true
	}
	reason := ""
	if heap := w.heapBytes(); heap > w.memCeiling {
		reason = fmt.Sprintf("heap %d MiB above the %d MiB ceiling", heap>>20, w.memCeiling>>20)
	} else if !w.execStart.IsZero() && now.Sub(w.execStart) > w.execTimeout {
		reason = fmt.Sprintf("execution running longer than %v", w.execTimeout)
	} else if now.After(w.deadline) {
		reason = "run deadline reached"
	}
	if reason == "" {
		w.mu.Unlock()
		return false
	}
	w.tripped = true
	w.mu.Unlock()
	w.trip(reason)
	return true
}

// watch polls until stop is closed or the watchdog trips.
func (w *watchdog) watch(stop <-chan struct{}, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			if w.check(now) {
				return
			}
		}
	}
}

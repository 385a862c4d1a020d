package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clock is the time source of the load generators; tests substitute a
// fake one to check the open loop's due-time accounting.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

// realClock measures from base. It sleeps with a raw nanosleep at 1ns
// timer slack: the Go runtime's timers wake ~1ms late on an idle Linux
// host, which would swamp the microsecond latencies an open loop times.
type realClock struct{ base time.Time }

func (c realClock) now() time.Duration { return time.Since(c.base) }

func (c realClock) sleepUntil(t time.Duration) {
	d := t - c.now()
	if d <= 0 {
		return
	}
	if d > 5*time.Millisecond {
		time.Sleep(d - 2*time.Millisecond)
		if d = t - c.now(); d <= 0 {
			return
		}
	}
	// PR_SET_TIMERSLACK applies to the calling thread; setting it before
	// every short sleep covers whichever thread the goroutine runs on.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, 29, 1, 0)
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// sample is one open-loop request: latency and generator lag, both
// measured from the time the request was due.
type sample struct {
	lat time.Duration // completion − due
	lag time.Duration // send − due
	err bool
}

// openLoop issues n requests, request i due at i·interval, from senders
// goroutines that each take the next request, wait for its due time and
// send it. Latency counts from the due time, not the send time, so a stall
// also charges the wait it imposes on every request queued behind it.
func openLoop(clk clock, n int, interval time.Duration, senders int, do func(sender, i int) error) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(i) * interval
				clk.sleepUntil(due)
				start := clk.now()
				err := do(s, i)
				end := clk.now()
				out[i] = sample{lat: end - due, lag: start - due, err: err != nil}
			}
		}(s)
	}
	wg.Wait()
	return out
}

// closedLoop runs clients goroutines that each send their next request as
// soon as the previous one completes, until d has passed. It returns the
// completed and failed request counts and the completion times.
func closedLoop(clients int, d time.Duration, do func(client, i int) error) (done, failed int64, ends []time.Duration) {
	var failedN atomic.Int64
	perClient := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				t := time.Since(start)
				if t >= d {
					return
				}
				if do(c, i) != nil {
					failedN.Add(1)
				}
				perClient[c] = append(perClient[c], time.Since(start))
			}
		}(c)
	}
	wg.Wait()
	for _, e := range perClient {
		ends = append(ends, e...)
	}
	return int64(len(ends)), failedN.Load(), ends
}

// windowRates returns the completions per second within each of windows
// equal slices of [0, d). Their median is the throughput, so a short stall
// moves one window rather than the throughput.
func windowRates(ends []time.Duration, d time.Duration, windows int) []float64 {
	counts := make([]float64, windows)
	w := d / time.Duration(windows)
	for _, e := range ends {
		if i := int(e / w); i < windows {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= w.Seconds()
	}
	return counts
}

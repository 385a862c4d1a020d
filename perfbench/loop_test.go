package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps or a request runs.
type fakeClock struct {
	mu sync.Mutex
	t  time.Duration
}

func (f *fakeClock) now() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) sleepUntil(t time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if t > f.t {
		f.t = t
	}
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t += d
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const ms = time.Millisecond
	// Requests are due every 10ms. Request 0 stalls for 25ms; the later
	// ones take 1ms each.
	clk := &fakeClock{}
	service := []time.Duration{25 * ms, 1 * ms, 1 * ms, 1 * ms}
	got := openLoop(clk, len(service), 10*ms, 1, func(_, i int) error {
		clk.advance(service[i])
		return nil
	})
	want := []sample{
		{lat: 25 * ms, lag: 0},       // due 0, sent 0, done 25
		{lat: 16 * ms, lag: 15 * ms}, // due 10, sent 25 behind the stall, done 26
		{lat: 7 * ms, lag: 6 * ms},   // due 20, sent 26, done 27
		{lat: 1 * ms, lag: 0},        // due 30, on time again
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d: got lat %v lag %v, want lat %v lag %v", i, got[i].lat, got[i].lag, want[i].lat, want[i].lag)
		}
	}
}

func TestOpenLoopCountsErrors(t *testing.T) {
	clk := &fakeClock{}
	got := openLoop(clk, 3, time.Millisecond, 2, func(_, i int) error {
		if i == 1 {
			return errTest
		}
		return nil
	})
	if got[0].err || !got[1].err || got[2].err {
		t.Fatalf("error flags = %v %v %v, want only request 1", got[0].err, got[1].err, got[2].err)
	}
}

type testError struct{}

func (testError) Error() string { return "test error" }

var errTest error = testError{}

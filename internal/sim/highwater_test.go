package sim

import "testing"

func TestSchedulerHighWaterPending(t *testing.T) {
	s := NewScheduler()
	if s.HighWaterPending() != 0 {
		t.Fatal("fresh scheduler has nonzero high water")
	}
	for i := 0; i < 10; i++ {
		s.At(Time(i+1), func() {})
	}
	if hw := s.HighWaterPending(); hw != 10 {
		t.Fatalf("high water %d after queuing 10, want 10", hw)
	}
	s.Drain()
	if s.Pending() != 0 {
		t.Fatal("drain left events queued")
	}
	// High water is a maximum: draining must not lower it.
	if hw := s.HighWaterPending(); hw != 10 {
		t.Fatalf("high water %d after drain, want 10", hw)
	}
}

// The calendar's bucket array follows its population down as well as
// up: after a burst of closures drains by dispatch alone (no Cancel),
// the array is back near the floor, so later minimum searches do not
// rotate through thousands of empty buckets.
func TestCalendarShrinksOnDispatch(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 10000; i++ {
		s.At(Time(i+1)*Nanosecond, func() {})
	}
	if grown := len(s.buckets); grown < 4096 {
		t.Fatalf("10k-closure burst grew the array to %d buckets only", grown)
	}
	s.At(Second, func() {}) // one straggler keeps the calendar non-empty
	s.Run(Millisecond)
	if got := len(s.buckets); got > 2*minBuckets {
		t.Fatalf("%d buckets for %d pending after the burst drained by dispatch, want <= %d",
			got, s.Pending(), 2*minBuckets)
	}
	s.Drain()
	if s.Processed() != 10001 {
		t.Fatalf("processed %d events, want 10001", s.Processed())
	}
}

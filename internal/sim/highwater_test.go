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
	drain(s)
	if s.Pending() != 0 {
		t.Fatal("drain left events queued")
	}
	// High water is a maximum: draining must not lower it.
	if hw := s.HighWaterPending(); hw != 10 {
		t.Fatalf("high water %d after drain, want 10", hw)
	}
}

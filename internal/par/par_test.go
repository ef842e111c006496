package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapOrderIndependentOfJobs(t *testing.T) {
	want := make([]int, 100)
	for i := range want {
		want[i] = i * i
	}
	for _, jobs := range []int{1, 2, 8, 100, 0} {
		got, err := Map(jobs, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("jobs=%d: got[%d] = %d, want %d", jobs, i, got[i], want[i])
			}
		}
	}
}

func TestMapFirstErrorByIndex(t *testing.T) {
	e3, e7 := errors.New("three"), errors.New("seven")
	_, err := Map(4, 10, func(i int) (int, error) {
		switch i {
		case 3:
			return 0, e3
		case 7:
			return 0, e7
		}
		return i, nil
	})
	if err != e3 {
		t.Fatalf("got %v, want the lowest-index error %v", err, e3)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	var cur, peak atomic.Int64
	_, err := Map(3, 64, func(i int) (int, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		defer cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d exceeds jobs=3", p)
	}
}

func TestMapPanicBecomesError(t *testing.T) {
	_, err := Map(2, 4, func(i int) (int, error) {
		if i == 2 {
			panic("boom")
		}
		return i, nil
	})
	if err == nil || err.Error() != fmt.Sprintf("par: job %d panicked: %v", 2, "boom") {
		t.Fatalf("got %v, want wrapped panic from job 2", err)
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(4, 0, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || got != nil {
		t.Fatalf("got %v, %v; want nil, nil", got, err)
	}
}

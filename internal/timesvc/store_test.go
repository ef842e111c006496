package timesvc

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestStoreEmptyReadsNotOK(t *testing.T) {
	var s Store
	if _, ok := s.Read(); ok {
		t.Fatal("Read ok before any Publish")
	}
	if e := s.Epoch(); e != 0 {
		t.Fatalf("Epoch = %d before any Publish", e)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	var s Store
	want := Snapshot{
		Epoch:     3,
		AnchorRaw: 123_456_789,
		AnchorUTC: 9.75e14,
		Ratio:     1.000042,
		BoundPs:   31_250,
		DriftPPM:  3,
		MaxAgePs:  80_000_000,
	}
	s.Publish(want)
	got, ok := s.Read()
	if !ok {
		t.Fatal("Read not ok after Publish")
	}
	if got != want {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if e := s.Epoch(); e != 3 {
		t.Fatalf("Epoch = %d, want 3", e)
	}
}

// TestStoreNoTornReads hammers Read from many goroutines while a writer
// republishes continuously. Every published snapshot derives all fields
// from its epoch, so any torn read — a mix of two snapshots — breaks
// the relation. Under -race this also proves the pointer publication
// data-race-free.
func TestStoreNoTornReads(t *testing.T) {
	var s Store
	var stop atomic.Bool
	var torn atomic.Value // string

	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		for e := uint64(1); !stop.Load(); e++ {
			s.Publish(Snapshot{
				Epoch:     e,
				AnchorRaw: int64(e * 2),
				AnchorUTC: float64(e * 3),
				Ratio:     float64(e * 5),
				BoundPs:   float64(e * 7),
				DriftPPM:  float64(e * 11),
				MaxAgePs:  int64(e * 13),
			})
		}
	}()

	// The full soak is minutes under -race on small machines; -short
	// (the CI-wide race job) keeps a real-but-quick hammer, and
	// `make flight` runs the long one.
	iters := 200_000
	if testing.Short() {
		iters = 20_000
	}
	const readers = 8
	var readersWG sync.WaitGroup
	for i := 0; i < readers; i++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			last := uint64(0)
			for n := 0; n < iters; n++ {
				sn, ok := s.Read()
				if !ok {
					continue
				}
				e := sn.Epoch
				if sn.AnchorRaw != int64(e*2) || sn.AnchorUTC != float64(e*3) ||
					sn.Ratio != float64(e*5) || sn.BoundPs != float64(e*7) ||
					sn.DriftPPM != float64(e*11) || sn.MaxAgePs != int64(e*13) {
					torn.Store("torn read: fields from different epochs")
					return
				}
				if e < last {
					torn.Store("epoch went backwards")
					return
				}
				last = e
			}
		}()
	}

	readersWG.Wait()
	stop.Store(true)
	writers.Wait()
	if msg, ok := torn.Load().(string); ok {
		t.Fatal(msg)
	}
}

// TestStoreReadZeroAlloc pins the fast path's allocation-free claim.
func TestStoreReadZeroAlloc(t *testing.T) {
	var s Store
	s.Publish(Snapshot{Epoch: 1, Ratio: 1})
	if n := testing.AllocsPerRun(1000, func() {
		if _, ok := s.Read(); !ok {
			t.Error("read failed")
		}
	}); n != 0 {
		t.Fatalf("Store.Read allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		_ = s.Epoch()
	}); n != 0 {
		t.Fatalf("Store.Epoch allocates %.1f times per call, want 0", n)
	}
}

// storeSink keeps benchmarked reads from being optimised away.
var storeSink Snapshot

func BenchmarkStoreRead(b *testing.B) {
	var s Store
	s.Publish(Snapshot{Epoch: 1, Ratio: 1, BoundPs: 50e3, DriftPPM: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		storeSink, _ = s.Read()
	}
}

// BenchmarkStorePublish reports the publish's allocation: one Snapshot.
func BenchmarkStorePublish(b *testing.B) {
	var s Store
	sn := Snapshot{Ratio: 1, BoundPs: 50e3, DriftPPM: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn.Epoch = uint64(i + 1)
		s.Publish(sn)
	}
}

package timesvc

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// epochSnapshot derives every field from the epoch, so a response can be
// checked against the snapshot its epoch names.
func epochSnapshot(e uint64) Snapshot {
	return Snapshot{
		Epoch:     e,
		AnchorRaw: int64(e * 2),
		AnchorUTC: float64(e) * 1e6,
		Ratio:     1 + float64(e%7)*1e-6,
		BoundPs:   float64(e * 3),
		DriftPPM:  float64(e % 5),
	}
}

// TestHandlerPairsIntervalWithItsEpoch republishes snapshots while
// /now and /interval requests run over a fixed raw reading: every
// response's interval must be the one its own epoch implies, never one
// snapshot's interval beside another's epoch.
func TestHandlerPairsIntervalWithItsEpoch(t *testing.T) {
	const raw = 5_000_000
	st := &Store{}
	st.Publish(epochSnapshot(1))
	h := Handler("h1", NewClock(st, &fakeTimebase{raw: raw}))

	var stop atomic.Bool
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for e := uint64(2); !stop.Load(); e++ {
			st.Publish(epochSnapshot(e))
		}
	}()
	defer func() {
		stop.Store(true)
		writer.Wait()
	}()

	requests := 20_000
	if testing.Short() {
		requests = 2_000
	}
	for i := 0; i < requests; i++ {
		path := "/now"
		if i%2 == 1 {
			path = "/interval"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body)
		}
		var got timeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		sn := epochSnapshot(got.Epoch)
		utc, iv, err := sn.at(raw)
		if err != nil {
			t.Fatal(err)
		}
		want := timeResponse{Host: "h1", UTCPs: utc, EarliestPs: iv.EarliestPs,
			LatestPs: iv.LatestPs, WidthPs: iv.WidthPs(), Epoch: got.Epoch}
		if got != want {
			t.Fatalf("GET %s: response does not match its epoch's snapshot:\n got %+v\nwant %+v", path, got, want)
		}
	}
}

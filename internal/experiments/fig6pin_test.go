package experiments

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/dtplab/dtp/internal/sim"
)

// fig6aPin is the SHA-256 of fig6aObservables at seed 1 over 100 ms,
// recorded before the OnOffset hook moved to the device inboxes. A
// change that must leave Figure 6 byte-identical passes this test
// unedited; one that moves it edits the pin and says why.
const fig6aPin = "f1583456fda687d51935a5a9aa37931346914813fb5424ec6ff5c21d6d264ff1"

// fig6aObservables renders Figure 6a's integer-valued results: each
// pair's sample count and offset histogram, by pair name, and the worst
// true adjacent offset. Integers only, so the pin holds on every
// architecture (floats may fuse multiply-adds on some).
func fig6aObservables(res *DTPFigResult) string {
	names := make([]string, 0, len(res.Hist))
	for name := range res.Hist {
		names = append(names, name)
	}
	sort.Strings(names)
	var b []byte
	for _, name := range names {
		h := res.Hist[name]
		b = fmt.Appendf(b, "%s n=%d", name, res.PairSummaries[name].N())
		values, probs := h.PDF()
		for i, v := range values {
			// PDF divides each count by the total; rounding the product
			// recovers the count exactly.
			b = fmt.Appendf(b, " %d:%d", v, uint64(math.Round(probs[i]*float64(h.Total()))))
		}
		b = append(b, '\n')
	}
	return string(fmt.Appendf(b, "max true %d\n", res.MaxTrueTicks))
}

// Figure 6a pinned in the tree: its samples, counted per pair and
// binned by offset, and the ground truth it reports, at seed 1 over
// 100 ms (under a second of wall time).
func TestFig6aPinned(t *testing.T) {
	res, err := Fig6a(Options{Seed: 1, Duration: 100 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	obs := fig6aObservables(res)
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(obs))); got != fig6aPin {
		t.Fatalf("Figure 6a observables hash to %s, pinned %s:\n%s", got, fig6aPin, obs)
	}
}

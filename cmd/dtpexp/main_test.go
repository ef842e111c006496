package main

import (
	"bytes"
	"strings"
	"testing"
)

// A server whose offsets never change sign prints its own range, not
// one stretched to 0.
func TestDaemonFigRangeOneSigned(t *testing.T) {
	var b bytes.Buffer
	printDaemonFig(&b, map[string][]float64{"s4": {2.5, 7, 3}, "s5": {-6, -1.5}}, 7, 16)
	for _, want := range []string{"range [2.5, 7.0] ticks", "range [-6.0, -1.5] ticks"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("missing %q in:\n%s", want, &b)
		}
	}
}

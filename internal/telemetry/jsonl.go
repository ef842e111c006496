package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// TraceSchema is the header line's schema identifier for JSONL trace
// dumps.
const TraceSchema = "dtp-trace/1"

// TraceHeader is the first line of a JSONL trace dump. Dropped is the
// ring-overflow count — without it a reader has no way to tell a quiet
// run from one whose history was mostly evicted.
type TraceHeader struct {
	Schema  string `json:"schema"`
	Events  int    `json:"events"`
	Total   uint64 `json:"total"`
	Dropped uint64 `json:"dropped"`
}

// newJSONLEncoder returns the encoder every JSONL writer in this package
// shares: one value per line, '<', '>' and '&' left as they are.
func newJSONLEncoder(w io.Writer) *json.Encoder {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc
}

// WriteTraceHeader writes the header line. Field order is fixed for
// byte-determinism.
func WriteTraceHeader(w io.Writer, events int, total, dropped uint64) error {
	h := TraceHeader{Schema: TraceSchema, Events: events, Total: total, Dropped: dropped}
	if err := newJSONLEncoder(w).Encode(h); err != nil {
		return fmt.Errorf("telemetry: trace header: %w", err)
	}
	return nil
}

// WriteJSONL dumps the tracer's retained events as JSON Lines: one
// header line (schema, event count, drop accounting), then one event
// per line, oldest first. The event schema is flat and stable:
//
//	{"seq":17,"t_ps":1280640,"kind":"beacon_rx","who":"s1[2]","v1":-1,"v2":0}
//
// "detail" appears only when non-empty. Field order is fixed, so two
// identical traces serialize to identical bytes.
func WriteJSONL(w io.Writer, t *Tracer) error {
	if t == nil {
		return nil
	}
	// Events/Total/Dropped each lock separately, so a concurrent Record
	// could skew them; take the event slice first and derive the header
	// from one Total read (dropped = total - len).
	events := t.Events()
	total := t.Total()
	if err := WriteTraceHeader(w, len(events), total, total-uint64(len(events))); err != nil {
		return err
	}
	return WriteEvents(w, events)
}

// WriteEvents serializes an event slice in the WriteJSONL schema, one
// BundleEvent per line. It is the shared backend of the full dump and
// the filtered /trace endpoint.
func WriteEvents(w io.Writer, events []Event) error {
	enc := newJSONLEncoder(w)
	for _, e := range events {
		if err := enc.Encode(wireEvent(e)); err != nil {
			return fmt.Errorf("telemetry: trace dump: %w", err)
		}
	}
	return nil
}

// ReadJSONL parses a JSONL trace dump (the output of WriteJSONL or the
// /trace endpoint) back into events. The events are returned along with
// the header when one is present (nil header for headerless dumps from
// older exports). Blank lines are skipped; a line that is not valid
// JSON or names an unknown kind is an error, so a truncated or foreign
// file fails loudly rather than analyzing garbage.
func ReadJSONL(r io.Reader) ([]Event, error) {
	events, _, err := ReadJSONLHeader(r)
	return events, err
}

// ReadJSONLHeader is ReadJSONL plus the parsed header line, when the
// dump has one.
func ReadJSONLHeader(r io.Reader) ([]Event, *TraceHeader, error) {
	var out []Event
	var hdr *TraceHeader
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if line == 1 && strings.Contains(text, `"schema"`) {
			var h TraceHeader
			if err := json.Unmarshal([]byte(text), &h); err != nil {
				return nil, nil, fmt.Errorf("telemetry: trace header: %w", err)
			}
			if h.Schema != TraceSchema {
				return nil, nil, fmt.Errorf("telemetry: trace header: unknown schema %q", h.Schema)
			}
			hdr = &h
			continue
		}
		var we BundleEvent
		if err := json.Unmarshal([]byte(text), &we); err != nil {
			return nil, nil, fmt.Errorf("telemetry: trace line %d: %w", line, err)
		}
		e, ok := we.Event()
		if !ok {
			return nil, nil, fmt.Errorf("telemetry: trace line %d: unknown kind %q", line, we.Kind)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("telemetry: trace read: %w", err)
	}
	return out, hdr, nil
}

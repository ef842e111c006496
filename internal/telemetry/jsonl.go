package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
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

// WriteTraceHeader writes the header line. Field order is fixed for
// byte-determinism.
func WriteTraceHeader(w io.Writer, events int, total, dropped uint64) error {
	var b strings.Builder
	b.WriteString(`{"schema":"`)
	b.WriteString(TraceSchema)
	b.WriteString(`","events":`)
	b.WriteString(strconv.Itoa(events))
	b.WriteString(`,"total":`)
	b.WriteString(strconv.FormatUint(total, 10))
	b.WriteString(`,"dropped":`)
	b.WriteString(strconv.FormatUint(dropped, 10))
	b.WriteString("}\n")
	if _, err := io.WriteString(w, b.String()); err != nil {
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

// WriteEvents serializes an event slice in the WriteJSONL schema. It is
// the shared backend of the full dump and the filtered /trace endpoint.
func WriteEvents(w io.Writer, events []Event) error {
	var b strings.Builder
	for _, e := range events {
		b.Reset()
		b.WriteString(`{"seq":`)
		b.WriteString(strconv.FormatUint(e.Seq, 10))
		b.WriteString(`,"t_ps":`)
		b.WriteString(strconv.FormatInt(int64(e.At), 10))
		b.WriteString(`,"kind":"`)
		b.WriteString(e.Kind.String())
		b.WriteString(`","who":`)
		b.WriteString(strconv.Quote(e.Who))
		b.WriteString(`,"v1":`)
		b.WriteString(strconv.FormatInt(e.V1, 10))
		b.WriteString(`,"v2":`)
		b.WriteString(strconv.FormatInt(e.V2, 10))
		if e.Detail != "" {
			b.WriteString(`,"detail":`)
			b.WriteString(strconv.Quote(e.Detail))
		}
		b.WriteString("}\n")
		if _, err := io.WriteString(w, b.String()); err != nil {
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

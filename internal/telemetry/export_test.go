package telemetry

import "io"

// The bundle codec, for the external fuzz target (which builds its seed
// bundle on a core network, and core imports this package).
var (
	DecodeBundle = decodeBundle
	EncodeBundle = encodeBundle
)

// WriteJSONL dumps a tracer's retained events as the tests read them: one
// header line (schema, event count, drop accounting), then one event per
// line, oldest first.
func WriteJSONL(w io.Writer, t *Tracer) error {
	events := t.Events()
	total := t.Total()
	if err := WriteTraceHeader(w, len(events), total, total-uint64(len(events))); err != nil {
		return err
	}
	return WriteEvents(w, events)
}

package telemetry

// The bundle codec, for the external fuzz target (which builds its seed
// bundle on a core network, and core imports this package).
var (
	DecodeBundle = decodeBundle
	EncodeBundle = encodeBundle
)

package serve

// DecodeEnvelope is decodeEnvelope, for the package's external
// benchmarks.
var DecodeEnvelope = decodeEnvelope

package featurize

// InflateGraph exposes inflateGraph to the external tests that score
// and train models on both graph layouts.
var InflateGraph = inflateGraph

package nn

// Inference replicas. The training-mode Forward of every layer stashes
// what Backward needs (its input, the pooling winners, the dropout
// mask) in the layer struct, so one layer instance cannot run Forward
// on two goroutines at once — that, not the weights, is why the
// screening engine gives each rank its own model replica. A replica is
// therefore a fresh layer struct that aliases the source's parameters:
// nothing is initialized, copied or allocated per parameter, and every
// weight form the source has built (frozen.go) is shared. Inference
// (Infer, infer.go) stashes nothing and needs no replica at all.
//
// Replicas are for Forward(x, false) and Infer only: training
// one would update the source's weights through the aliased
// parameters.

// Replica returns an inference replica aliasing c's parameters.
func (c *Conv3D) Replica() *Conv3D {
	return &Conv3D{In: c.In, Out: c.Out, K: c.K, W: c.W, B: c.B, Direct: c.Direct}
}

// Replica returns an inference replica aliasing d's parameters.
func (d *Dense) Replica() *Dense {
	return &Dense{In: d.In, Out: d.Out, W: d.W, B: d.B}
}

// Replica returns an inference replica aliasing b's parameters and
// running statistics.
func (b *BatchNorm) Replica() *BatchNorm {
	return &BatchNorm{F: b.F, Gamma: b.Gamma, Beta: b.Beta, RunMean: b.RunMean, RunVar: b.RunVar, Momentum: b.Momentum, Eps: b.Eps}
}

// Replica returns an inference replica of the dropout layer. It has no
// random stream: inference dropout is the identity.
func (d *Dropout) Replica() *Dropout { return &Dropout{Rate: d.Rate} }

// Replica returns an inference replica of the activation.
func (a *Activation) Replica() *Activation { return &Activation{Kind: a.Kind, Slope: a.Slope} }

// Replica returns an inference replica of the pooling layer.
func (m *MaxPool3D) Replica() *MaxPool3D { return &MaxPool3D{K: m.K} }

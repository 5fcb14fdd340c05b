package tensor

import "math/rand"

// RandNormal fills t with N(0, std^2) samples drawn from rng.
func (t *Dense[T]) RandNormal(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = T(rng.NormFloat64() * std)
	}
}

// RandUniform fills t with Uniform(lo, hi) samples drawn from rng.
func (t *Dense[T]) RandUniform(rng *rand.Rand, lo, hi float64) {
	for i := range t.Data {
		t.Data[i] = T(lo + rng.Float64()*(hi-lo))
	}
}

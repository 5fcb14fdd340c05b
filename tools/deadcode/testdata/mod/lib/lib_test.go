package lib

import "testing"

func TestOnlyFromTests(t *testing.T) {
	TestOnly()
	new(T).TestMethod()
	NewFake().Set(1)
}

func BenchmarkOnly(b *testing.B) {
	BenchOnly()
	T{}.BenchMethod()
}

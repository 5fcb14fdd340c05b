package lib

import "testing"

func TestOnlyFromTests(t *testing.T) { TestOnly() }

func BenchmarkOnly(b *testing.B) { BenchOnly() }

// Package lib holds one function of each kind the gate judges.
package lib

// Live is reached from main.
func Live() { kernel() }

// TestOnly is called only from a test.
func TestOnly() { viaTestOnly() }

// viaTestOnly is reached only through TestOnly.
func viaTestOnly() {}

// BenchOnly is reached only from a benchmark.
func BenchOnly() {}

// Unused is reached from nothing.
func Unused() {}

// Allowed is reached from nothing, but the allow-list names it.
func Allowed() {}

// T's method is never judged, and it keeps what it calls live.
type T struct{}

func (T) Method() { fromMethod() }

func fromMethod() {}

// portableOnly is called only from the !amd64 kernel.
func portableOnly() {}

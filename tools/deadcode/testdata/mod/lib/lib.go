// Package lib holds one function and one method of each kind the gate
// judges.
package lib

// Live is reached from main.
func Live() { kernel(); T{}.Method() }

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

// T's methods are judged like functions.
type T struct{}

// Method is reached from Live, and it keeps what it calls live.
func (T) Method() { fromMethod() }

func fromMethod() {}

// TestMethod is called only from a test, and so is what only it calls.
func (*T) TestMethod() { viaTestMethod() }

func viaTestMethod() {}

// BenchMethod is called only from a benchmark.
func (T) BenchMethod() {}

// unusedMethod is reached from nothing.
func (T) unusedMethod() {}

// Namer is an interface of the module that no code calls through.
type Namer interface{ Name() string }

// Name is named by no selector, but T lends it to Namer.
func (T) Name() string { return "t" }

// String is named by no selector, but T lends it to fmt.Stringer.
func (T) String() string { return "T" }

// Fake is test support: the allow-list names the type, which covers its
// constructor and its methods.
type Fake struct{ n int }

func NewFake() *Fake { return &Fake{} }

func (f *Fake) Set(n int) { f.n = n }

// portableOnly is called only from the !amd64 kernel.
func portableOnly() {}

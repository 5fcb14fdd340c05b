//go:build !amd64

package lib

func kernel() { portableOnly() }

// portableUnused exists only off amd64, and nothing reaches it.
func (T) portableUnused() {}

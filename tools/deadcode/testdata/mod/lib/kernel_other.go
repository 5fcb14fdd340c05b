//go:build !amd64

package lib

func kernel() { portableOnly() }

//go:build !amd64

package cpufeat

// AVX2 is false off amd64.
const AVX2 = false

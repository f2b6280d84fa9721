// Package cpufeat reports the CPU features the assembly kernels of other
// packages need, probed once at start-up. It imports nothing, so any
// package may read it; off amd64 every feature is the constant false, and
// code behind a feature test compiles away there.
package cpufeat

package core_test

import (
	"testing"

	"pmgard/internal/promise"
)

// The read-path suites are slices of the promise matrix (internal/promise):
// every way of reading a field, fault-free and under faults, against the
// original field.

func TestCompressRetrieveWithinTolerance(t *testing.T) { promise.Run(t, promise.Reference) }
func TestFileRoundTrip(t *testing.T)                   { promise.Run(t, promise.FlatReads) }
func TestTieredWorkflow(t *testing.T)                  { promise.Run(t, promise.TieredReads) }
func TestReadPathEquivalence(t *testing.T)             { promise.Run(t, promise.ReadPaths) }
func TestSessionRefineThroughRetryingSourceByteIdentical(t *testing.T) {
	promise.Run(t, promise.Transient)
}
func TestSessionDegradedRefine(t *testing.T)             { promise.Run(t, promise.Lost) }
func TestReadPathsDegradeAroundRottedMedia(t *testing.T) { promise.Run(t, promise.RottedMedia) }
func TestReadPathsRejectMisdirectedSegment(t *testing.T) { promise.Run(t, promise.Misdirected) }
func TestWalkerMatchesFreshRetrievals(t *testing.T)      { promise.Run(t, promise.Walks) }

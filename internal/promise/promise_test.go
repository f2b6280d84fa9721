package promise_test

import (
	"testing"

	"pmgard/internal/promise"
)

// TestMatrix runs the rows no suite of the packages under test selects:
// tiled artifacts, and the uninflatable and unindexed library reads.
func TestMatrix(t *testing.T) { promise.Run(t, promise.Rest) }

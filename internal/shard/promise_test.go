package shard_test

import (
	"testing"

	"pmgard/internal/promise"
)

// The run-protocol suites are slices of the promise matrix
// (internal/promise): shared sessions over the local store and routers over
// nodes, by runs and by runs of one, with every plane and with one lost.

func TestRunProtocolEquivalence(t *testing.T) { promise.Run(t, promise.RunProtocol) }
func TestLostPlaneMidRunDegradesLikeOnePlaneProtocol(t *testing.T) {
	promise.Run(t, promise.LostMidRun)
}

package serve_test

import (
	"testing"

	"pmgard/internal/promise"
)

// The serving suites are slices of the promise matrix (internal/promise):
// /refine on every wiring, and over artifacts whose media or index went bad.

func TestRolesAnswerAlike(t *testing.T)                         { promise.Run(t, promise.Roles) }
func TestChaosBitRotDegradesOnEveryLayout(t *testing.T)         { promise.Run(t, promise.BitRot) }
func TestChaosUninflatablePlaneDegrades(t *testing.T)           { promise.Run(t, promise.Uninflatable) }
func TestChaosUnindexedPlaneDegradesOnEveryLayout(t *testing.T) { promise.Run(t, promise.Unindexed) }

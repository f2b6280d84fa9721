package core

import (
	"context"
	"strings"
	"testing"

	"pmgard/internal/retrieval"
)

// TestWalkerRefusesRewind holds what a walk refuses besides answering the
// promise matrix's walker rows (internal/promise): a stop below what the
// walk holds, naming the level, and a sweep of no bounds.
func TestWalkerRefusesRewind(t *testing.T) {
	ctx := context.Background()
	f := testField(t)
	h, c := sharedFixture(t)
	w, err := NewWalker(h, c, f)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Stop(ctx, []int{3, 3, 3, 3, 3}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Stop(ctx, []int{3, 3, 2, 3, 3}); err == nil || !strings.Contains(err.Error(), "level 2") {
		t.Fatalf("stop below the walk: err = %v, want a refusal naming level 2", err)
	}
	if _, err := SweepBounds(ctx, nil, nil, f, retrieval.Bound{}, nil); err == nil {
		t.Fatal("a sweep of no bounds was accepted")
	}
}

package pmgard_test

import (
	"context"
	"fmt"
	"math"

	"pmgard"
)

// waveField builds a small smooth 3-D field for the examples.
func waveField() *pmgard.Tensor {
	n := 17
	f := pmgard.NewTensor(n, n, n)
	data := f.Data()
	ix := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				x := float64(i) / float64(n-1)
				y := float64(j) / float64(n-1)
				z := float64(k) / float64(n-1)
				data[ix] = math.Sin(3*x) * math.Cos(2*y) * math.Sin(x+z)
				ix++
			}
		}
	}
	return f
}

// Example compresses a field and retrieves it progressively at two
// tolerances, showing that the tighter tolerance costs more bytes.
func Example() {
	field := waveField()
	c, err := pmgard.Compress(field, pmgard.DefaultConfig(), "demo", 0)
	if err != nil {
		panic(err)
	}
	h := &c.Header

	loose, _, err := pmgard.RetrieveTolerance(context.Background(), h, c, h.TheoryEstimator(), h.AbsTolerance(1e-2), pmgard.RetrieveOptions{})
	if err != nil {
		panic(err)
	}
	_, planLoose, _ := pmgard.RetrieveTolerance(context.Background(), h, c, h.TheoryEstimator(), h.AbsTolerance(1e-2), pmgard.RetrieveOptions{})
	_, planTight, err := pmgard.RetrieveTolerance(context.Background(), h, c, h.TheoryEstimator(), h.AbsTolerance(1e-6), pmgard.RetrieveOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("loose error within bound:", pmgard.MaxAbsDiff(field, loose) <= h.AbsTolerance(1e-2))
	fmt.Println("tight costs more:", planTight.Bytes > planLoose.Bytes)
	// Output:
	// loose error within bound: true
	// tight costs more: true
}

// ExampleSession shows progressive refinement: tightening the tolerance
// only fetches the delta, so the session's total never exceeds a one-shot
// retrieval at the final tolerance.
func ExampleSession() {
	field := waveField()
	c, err := pmgard.Compress(field, pmgard.DefaultConfig(), "demo", 0)
	if err != nil {
		panic(err)
	}
	h := &c.Header
	s, err := pmgard.NewSession(h, c)
	if err != nil {
		panic(err)
	}
	est := h.TheoryEstimator()
	if _, _, _, err := s.Refine(context.Background(), est, h.AbsTolerance(1e-2)); err != nil {
		panic(err)
	}
	coarseBytes := s.BytesFetched()
	if _, _, _, err := s.Refine(context.Background(), est, h.AbsTolerance(1e-6)); err != nil {
		panic(err)
	}
	_, oneShot, err := pmgard.RetrieveTolerance(context.Background(), h, c, est, h.AbsTolerance(1e-6), pmgard.RetrieveOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("refinement fetched more:", s.BytesFetched() > coarseBytes)
	fmt.Println("no wasted reads:", s.BytesFetched() <= oneShot.Bytes)
	// Output:
	// refinement fetched more: true
	// no wasted reads: true
}

// ExampleBackends selects a progressive-codec backend explicitly and probes
// which backend retrieves a field cheapest — the selection cmd/serve -raw
// automates per field.
func ExampleBackends() {
	field := waveField()
	fmt.Println("registered:", pmgard.Backends())

	cfg := pmgard.DefaultConfig()
	cfg.Backend = "interp"
	c, err := pmgard.Compress(field, cfg, "demo", 0)
	if err != nil {
		panic(err)
	}
	h := &c.Header
	rec, _, err := pmgard.RetrieveTolerance(context.Background(), h, c, h.TheoryEstimator(), h.AbsTolerance(1e-4), pmgard.RetrieveOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("backend:", h.Codec())
	fmt.Println("within bound:", pmgard.MaxAbsDiff(field, rec) <= h.AbsTolerance(1e-4))

	cmp, err := pmgard.ProbeBackends(field, pmgard.DefaultConfig(), "demo", nil, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("probed backends:", len(cmp.Results) == len(pmgard.Backends()))
	// Output:
	// registered: [interp mgard]
	// backend: interp
	// within bound: true
	// probed backends: true
}

// ExampleRetrieveResolution reconstructs at a quarter of the resolution
// from only the coarse coefficient levels.
func ExampleRetrieveResolution() {
	field := waveField()
	c, err := pmgard.Compress(field, pmgard.DefaultConfig(), "demo", 0)
	if err != nil {
		panic(err)
	}
	coarse, _, err := pmgard.RetrieveResolution(context.Background(), &c.Header, c, []int{32, 32, 32, 0, 0}, 2, pmgard.RetrieveOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("coarse dims:", coarse.Dims())
	// Output:
	// coarse dims: [5 5 5]
}

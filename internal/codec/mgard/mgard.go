// Package mgard registers the paper's MGARD-style lifting decomposition as
// the "mgard" progressive-codec backend. It is a thin adapter over
// internal/decompose: the transform, its worker fan-out, and the
// error-amplification constants are exactly the pre-interface pipeline's,
// so artifacts produced through this backend are byte-identical to those
// the pipeline wrote before the codec abstraction existed (pinned by
// core's TestStoredFormatStability and the codectest worker-identity
// suite).
package mgard

import (
	"pmgard/internal/codec"
	"pmgard/internal/decompose"
	"pmgard/internal/grid"
	"pmgard/internal/obs"
)

// ID is the backend identifier; it is also codec.DefaultID, the codec every
// pre-interface artifact belongs to.
const ID = "mgard"

func init() { codec.Register(Codec{}) }

// Codec is the MGARD-style backend: multilinear lifting prediction with the
// optional L2-projection-like update step, nega-binary bit-plane streams.
type Codec struct {
	codec.BitplaneCoder
}

// ID implements codec.ProgressiveCodec.
func (Codec) ID() string { return ID }

// Decompose implements codec.ProgressiveCodec: DecomposeInPlace on a copy
// of t.
func (c Codec) Decompose(t *grid.Tensor, opts codec.Options, workers int, o *obs.Obs) (codec.Decomposition, error) {
	return c.DecomposeInPlace(t.Clone(), opts, workers, o)
}

// DecomposeInPlace implements codec.ProgressiveCodec via the lifting
// transform, run in t's own data. A refusal returns a nil Decomposition,
// not a nil *decompose.Decomposition inside a non-nil interface.
func (Codec) DecomposeInPlace(t *grid.Tensor, opts codec.Options, workers int, o *obs.Obs) (codec.Decomposition, error) {
	d, err := decompose.DecomposeInPlace(t, opts, workers, o)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// NewZero implements codec.ProgressiveCodec; it refuses as Decompose does.
func (Codec) NewZero(dims []int, opts codec.Options, workers int) (codec.Decomposition, error) {
	d, err := decompose.NewZero(dims, opts, workers)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// NaiveAmplification implements codec.ProgressiveCodec: the compounded
// absolute-row-sum constant of the original error-control theory ([19],
// Eq. 6), wildly pessimistic by design.
func (Codec) NaiveAmplification(opts codec.Options, rank int) float64 {
	return decompose.NaiveErrorAmplification(opts, rank)
}

// LevelAmplification implements codec.ProgressiveCodec with the lifting
// transform's closed form: 1 on the coarsest level, at most 2^rank − 1 on
// the others.
func (Codec) LevelAmplification(dims []int, opts codec.Options) []float64 {
	return decompose.LevelAmplification(dims, opts)
}

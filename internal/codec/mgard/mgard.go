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

// options converts the backend-agnostic options into the decompose form.
func options(opts codec.Options) decompose.Options {
	return decompose.Options{
		Levels:       opts.Levels,
		Update:       opts.Update,
		UpdateWeight: opts.UpdateWeight,
	}
}

// Decompose implements codec.ProgressiveCodec via the lifting transform.
func (Codec) Decompose(t *grid.Tensor, opts codec.Options, workers int, o *obs.Obs) (codec.Decomposition, error) {
	return decompose.Decompose(t, options(opts), workers, o)
}

// NewZero implements codec.ProgressiveCodec.
func (Codec) NewZero(dims []int, opts codec.Options, workers int) (codec.Decomposition, error) {
	return decompose.NewZero(dims, options(opts), workers)
}

// NaiveAmplification implements codec.ProgressiveCodec: the compounded
// absolute-row-sum constant of the original error-control theory ([19],
// Eq. 6), wildly pessimistic by design.
func (Codec) NaiveAmplification(opts codec.Options, rank int) float64 {
	return options(opts).NaiveErrorAmplification(rank)
}

// TightAmplification implements codec.ProgressiveCodec: per-level
// amplification without cross-step compounding.
func (Codec) TightAmplification(opts codec.Options, rank int) float64 {
	return options(opts).ErrorAmplification(rank)
}

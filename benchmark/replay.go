package main

// The layer replay re-executes one refine and one compress stage by stage
// through each layer's public functions, with a span around every call. It
// is the only file of the benchmark that imports internal/…, and it imports
// only the entry points pinned in README.md.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"time"

	"pmgard/internal/bitplane"
	"pmgard/internal/codec"
	"pmgard/internal/core"
	"pmgard/internal/features"
	"pmgard/internal/fieldio"
	"pmgard/internal/grid"
	"pmgard/internal/lossless"
	"pmgard/internal/retrieval"
	"pmgard/internal/storage"
)

// Stage names, one per layer call the replay times; the per-layer metrics
// are derived from them.
const (
	stPlan      = "retrieval.plan"
	stNewZero   = "codec.new_zero"
	stRead      = "storage.read"
	stInflate   = "lossless.inflate"
	stDecode    = "bitplane.decode"
	stRecompose = "decompose.recompose"
	stChecksum  = "serve.checksum"

	stFieldRead = "fieldio.read"
	stDecompose = "decompose.decompose"
	stPool      = "features.pool"
	stEncode    = "bitplane.encode"
	stDeflate   = "lossless.deflate"
	stWrite     = "storage.write"
	stHeader    = "core.header"
)

// poolSize is the per-level pooled-summary length core's config defaults
// to; replay.fidelity fails if the pipeline's default moves.
const poolSize = 64

// opTrace times the stages of one replayed operation: each call runs under
// a span parented at the operation's root, and the durations accumulate by
// stage name. A nil *opTrace only runs the calls, which is how the verifier
// and the warm replay's cache fill use the same code untimed.
type opTrace struct {
	tr     *tracer
	op     string
	root   int
	stages map[string]time.Duration
}

func (t *tracer) beginOp(op string) *opTrace {
	return &opTrace{tr: t, op: op, root: t.start(op, "op", 0), stages: map[string]time.Duration{}}
}

func (o *opTrace) time(stage string, fn func()) {
	if o == nil {
		fn()
		return
	}
	id := o.tr.start(o.op, stage, o.root)
	fn()
	o.stages[stage] += o.tr.end(id)
}

func (o *opTrace) finish() { o.tr.end(o.root) }

// artifact is the read side of one compressed field: its header and store,
// the lossless and progressive codecs the header names, and the original
// field the reconstructions are checked against.
type artifact struct {
	h    *core.Header
	st   *storage.Store
	lc   lossless.Codec
	cod  codec.ProgressiveCodec
	orig *grid.Tensor
	// inflated caches decompressed planes for the warm replay, which like a
	// warm server pays no store read and no inflate.
	inflated map[storage.SegmentID][]byte
}

func openArtifact(pmgd, field string) (*artifact, error) {
	h, st, err := core.OpenFile(pmgd)
	if err != nil {
		return nil, err
	}
	a := &artifact{h: h, st: st, inflated: map[storage.SegmentID][]byte{}}
	if a.lc, err = lossless.ByName(h.CodecName); err == nil {
		if a.cod, err = codec.ByID(h.Codec()); err == nil {
			_, a.orig, err = fieldio.Read(field)
		}
	}
	if err != nil {
		st.Close()
		return nil, err
	}
	return a, nil
}

func (a *artifact) close() { a.st.Close() }

// plan is the server's planning step: the greedy search under the theory
// estimator at the header's absolute tolerance for rel.
func (a *artifact) plan(o *opTrace, rel float64) (retrieval.Plan, error) {
	var p retrieval.Plan
	var err error
	o.time(stPlan, func() {
		p, err = retrieval.GreedyPlan(a.h.LevelInfos(), a.h.TheoryEstimator(), a.h.AbsTolerance(rel))
	})
	return p, err
}

// reconstruct is the read path for a fixed plane assignment: zero
// decomposition, per-plane store read and inflate, per-level bit-plane
// decode, recompose. Every stage runs on one worker so its wall time is its
// CPU time. With warm set, planes come from (and fill) the artifact's
// inflated cache and the read and inflate stages record nothing.
func (a *artifact) reconstruct(o *opTrace, planes []int, warm bool) (*grid.Tensor, error) {
	h := a.h
	if len(planes) != len(h.Levels) {
		return nil, fmt.Errorf("%d plane counts for %d levels", len(planes), len(h.Levels))
	}
	var dec codec.Decomposition
	var err error
	o.time(stNewZero, func() { dec, err = a.cod.NewZero(h.Dims, h.CodecOptions(), 1) })
	if err != nil {
		return nil, err
	}
	encs := make([]*bitplane.LevelEncoding, len(h.Levels))
	for l, lm := range h.Levels {
		if planes[l] < 0 || planes[l] > h.Planes {
			return nil, fmt.Errorf("level %d plane count %d out of range", l, planes[l])
		}
		encs[l] = &bitplane.LevelEncoding{N: lm.N, Planes: h.Planes, Exponent: lm.Exponent, Bits: make([][]byte, h.Planes)}
		for k := 0; k < planes[l]; k++ {
			id := storage.SegmentID{Level: l, Plane: k}
			var raw []byte
			if !warm {
				raw, err = a.fetchPlane(o, id, lm.RawPlaneSize)
			} else if raw = a.inflated[id]; raw == nil {
				raw, err = a.fetchPlane(nil, id, lm.RawPlaneSize)
				a.inflated[id] = raw
			}
			if err != nil {
				return nil, err
			}
			encs[l].Bits[k] = raw
		}
	}
	o.time(stDecode, func() {
		for l := range encs {
			a.cod.DecodeLevel(encs[l], planes[l], dec.Coeffs(l), 1, nil)
		}
	})
	var rec *grid.Tensor
	o.time(stRecompose, func() { rec = dec.Recompose() })
	return rec, nil
}

// fetchPlane reads one plane's segment from the store and inflates it.
func (a *artifact) fetchPlane(o *opTrace, id storage.SegmentID, rawSize int) (raw []byte, err error) {
	var seg []byte
	o.time(stRead, func() { seg, err = a.st.ReadSegment(id) })
	if err != nil {
		return nil, err
	}
	o.time(stInflate, func() { raw, err = a.lc.Decompress(seg, rawSize) })
	return raw, err
}

// checksum is serve's response fingerprint, computed the way serve computes
// it (CRC-32 over the little-endian float64 payload, eight bytes per write)
// so the stage costs here what it costs there.
func checksum(t *grid.Tensor) string {
	h := crc32.NewIEEE()
	var buf [8]byte
	for _, v := range t.Data() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%08x", h.Sum32())
}

// planeBytes is the decompressed size of the planes a plan decodes.
func (a *artifact) planeBytes(planes []int) float64 {
	total := 0.0
	for l, lm := range a.h.Levels {
		total += float64(planes[l] * lm.RawPlaneSize)
	}
	return total
}

// storedBytes is the compressed size of the planes a plan reads.
func (a *artifact) storedBytes(planes []int) float64 {
	total := 0.0
	for l, lm := range a.h.Levels {
		for k := 0; k < planes[l]; k++ {
			total += float64(lm.PlaneSizes[k])
		}
	}
	return total
}

// maxError is the achieved L∞ error of a reconstruction on the original.
func (a *artifact) maxError(rec *grid.Tensor) float64 { return grid.MaxAbsDiff(a.orig, rec) }

// replayCompress is the write path of `mgard compress` at its default
// flags, stage by stage on one worker: read the field, decompose, pool the
// header features, bit-plane encode each level (error matrix included),
// deflate each plane, stream the segments out and commit under the same
// header. It returns the raw plane bytes that went into deflate and the
// compressed bytes that came out.
func replayCompress(o *opTrace, fieldPath, out string) (planeIn, planeOut float64, err error) {
	cfg := core.DefaultConfig()
	cod, err := codec.ByID(cfg.Backend)
	if err != nil {
		return 0, 0, err
	}
	var meta fieldio.Meta
	var t *grid.Tensor
	o.time(stFieldRead, func() { meta, t, err = fieldio.Read(fieldPath) })
	if err != nil {
		return 0, 0, err
	}
	opts := codec.Options{Levels: cfg.Decompose.Levels, Update: cfg.Decompose.Update, UpdateWeight: cfg.Decompose.UpdateWeight}
	var dec codec.Decomposition
	o.time(stDecompose, func() { dec, err = cod.Decompose(t, opts, 1, nil) })
	if err != nil {
		return 0, 0, err
	}
	h := core.Header{
		FieldName:       meta.Field,
		Timestep:        meta.Timestep,
		Dims:            t.Dims(),
		Planes:          cfg.Planes,
		CodecName:       cfg.Codec.Name(),
		DecomposeLevels: opts.Levels,
		Update:          opts.Update,
		UpdateWeight:    opts.UpdateWeight,
		Levels:          make([]core.LevelMeta, dec.Levels()),
	}
	o.time(stHeader, func() { h.ValueRange = t.Range() })
	o.time(stPool, func() {
		for l := 0; l < dec.Levels(); l++ {
			h.LevelPools = append(h.LevelPools, features.PoolLevel(dec.Coeffs(l), poolSize))
		}
	})
	var sw *storage.StreamWriter
	o.time(stWrite, func() { sw, err = storage.CreateStream(out) })
	if err != nil {
		return 0, 0, err
	}
	defer sw.Abort()
	for l := 0; l < dec.Levels(); l++ {
		var enc *bitplane.LevelEncoding
		o.time(stEncode, func() { enc, err = cod.EncodeLevel(dec.Coeffs(l), cfg.Planes, 1, nil) })
		if err != nil {
			return 0, 0, err
		}
		lm := core.LevelMeta{
			N:            enc.N,
			Exponent:     enc.Exponent,
			ErrMatrix:    append([]float64(nil), enc.ErrMatrix...),
			PlaneSizes:   make([]int64, cfg.Planes),
			RawPlaneSize: enc.PlaneSizeRaw(),
		}
		for k := 0; k < cfg.Planes; k++ {
			var seg []byte
			o.time(stDeflate, func() { seg, err = cfg.Codec.Compress(enc.Bits[k]) })
			if err != nil {
				return 0, 0, err
			}
			o.time(stWrite, func() { err = sw.WriteSegment(storage.SegmentID{Level: l, Plane: k}, seg) })
			if err != nil {
				return 0, 0, err
			}
			lm.PlaneSizes[k] = int64(len(seg))
			planeIn += float64(len(enc.Bits[k]))
			planeOut += float64(len(seg))
		}
		h.Levels[l] = lm
		enc.Release()
	}
	var hdr []byte
	o.time(stHeader, func() { hdr, err = json.Marshal(&h) })
	if err != nil {
		return 0, 0, err
	}
	o.time(stWrite, func() { err = sw.Commit(hdr) })
	return planeIn, planeOut, err
}

// fileSHA256 hashes a file; artifacts of one field must all hash alike.
func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

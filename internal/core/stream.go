package core

import (
	"context"
	"encoding/json"
	"fmt"

	"pmgard/internal/bufpool"
	"pmgard/internal/codec"
	"pmgard/internal/features"
	"pmgard/internal/grid"
	"pmgard/internal/lossless"
	"pmgard/internal/pool"
	"pmgard/internal/storage"
)

// SegmentSink consumes compressed plane segments in strictly increasing
// (level, plane) order — the on-disk layout order. The payload buffer is
// only valid for the duration of the call (CompressTo recycles it), so a
// sink that retains bytes must copy. storage.StreamWriter and
// storage.TieredWriter both satisfy the interface.
type SegmentSink interface {
	WriteSegment(id storage.SegmentID, payload []byte) error
}

// CompressTo is the streaming compression pipeline: it refactors t and
// hands each compressed (level, plane) segment to sink as soon as its
// window is deflated, instead of accumulating the artifact in memory. It
// is one loop over levels: encode the level's bit-planes, deflate them
// with pool.Run one window of 2 × workers planes at a time, hand each
// window to sink in plane order, and release the level's encoding before
// the next level starts. Segments therefore reach the sink in the
// deterministic (level, plane) order, and the bytes are identical to the
// in-memory Compress path at every worker count.
//
// Peak payload memory is one level encoding plus one window of deflated
// planes; segment buffers are recycled through bufpool. The error returned
// is the one a sequential run would hit first. The returned header is
// complete (plane sizes filled in) only after CompressTo returns. t is not
// modified.
func CompressTo(t *grid.Tensor, cfg Config, fieldName string, timestep int, sink SegmentSink) (*Header, error) {
	return compressTo(t, false, cfg, fieldName, timestep, sink)
}

// compressTo is CompressTo, which consumes t when owned: the backend then
// refactors t in place (codec.ProgressiveCodec.DecomposeInPlace), so the
// field's storage becomes the finest level's stream instead of being
// copied.
func compressTo(t *grid.Tensor, owned bool, cfg Config, fieldName string, timestep int, sink SegmentSink) (*Header, error) {
	cfg = cfg.withDefaults()
	workers := pool.Clamp(cfg.Parallelism)
	o := cfg.Obs
	root := o.Span("compress", nil)
	root.SetAttr("field", fieldName)
	defer root.End()
	backend, err := codec.ByID(cfg.Backend)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	h := &Header{
		FieldName:       fieldName,
		Timestep:        timestep,
		Dims:            append([]int(nil), t.Dims()...),
		Planes:          cfg.Planes,
		CodecName:       cfg.Codec.Name(),
		DecomposeLevels: cfg.Decompose.Levels,
		Update:          cfg.Decompose.Update,
		UpdateWeight:    cfg.Decompose.UpdateWeight,
		// Taken before the transform, which may overwrite an owned t.
		ValueRange: t.Range(),
	}
	refactor := backend.Decompose
	if owned {
		refactor = backend.DecomposeInPlace
	}
	dec, err := refactor(t, cfg.Decompose, workers, o)
	if err != nil {
		return nil, fmt.Errorf("core: decompose: %w", err)
	}
	// Pre-interface headers carry no codec tag; keeping the default
	// backend's tag empty keeps its JSON — and hence its artifacts —
	// byte-identical to theirs.
	if id := backend.ID(); id != codec.DefaultID {
		h.CodecID = id
	}
	L := dec.Levels()
	for l := 0; l < L; l++ {
		h.LevelPools = append(h.LevelPools, features.PoolLevel(dec.Coeffs(l), cfg.PoolSize))
	}
	h.Levels = make([]LevelMeta, L)

	ci := lossless.NewCompressInstruments(o)
	m := pool.NewMetrics(o, "lossless.compress")
	sp := o.Span("lossless.compress", nil)
	sp.SetAttr("codec", cfg.Codec.Name())
	defer sp.End()
	payloads := make([][]byte, 2*workers)
	var bytesOut int64
	for l := 0; l < L; l++ {
		enc, err := backend.EncodeLevel(dec.Coeffs(l), cfg.Planes, workers, o)
		if err != nil {
			return nil, fmt.Errorf("core: encode level %d: %w", l, err)
		}
		raw := enc.PlaneSizeRaw()
		h.Levels[l] = LevelMeta{
			N:        enc.N,
			Exponent: enc.Exponent,
			// The header outlives the pooled encoding, so it takes a copy.
			ErrMatrix:    append([]float64(nil), enc.ErrMatrix...),
			PlaneSizes:   make([]int64, cfg.Planes),
			RawPlaneSize: raw,
		}
		for lo := 0; lo < cfg.Planes && err == nil; lo += len(payloads) {
			window := payloads[:min(len(payloads), cfg.Planes-lo)]
			derr := pool.Run(context.TODO(), len(window), workers, m, func(_, i int) error {
				// Capacity covers deflate's worst case (stored blocks) so the
				// steady-state append never grows the pooled buffer.
				dst := bufpool.Bytes(raw + raw/8 + 64)[:0]
				out, err := ci.AppendCompress(cfg.Codec, dst, enc.Bits[lo+i])
				if err != nil {
					bufpool.PutBytes(dst)
					return err
				}
				window[i] = out
				return nil
			})
			// The window goes to the sink in plane order up to the first
			// error, so a sink error at plane k wins over a deflate error at
			// a higher plane, as it would in a sequential run. The first
			// plane without a payload is the lowest one whose deflate
			// failed: the one pool.Run reports.
			for i, payload := range window {
				switch {
				case err != nil:
				case payload == nil:
					err = derr
				default:
					err = sink.WriteSegment(storage.SegmentID{Level: l, Plane: lo + i}, payload)
					h.Levels[l].PlaneSizes[lo+i] = int64(len(payload))
					bytesOut += int64(len(payload))
				}
				bufpool.PutBytes(payload)
				window[i] = nil
			}
		}
		enc.Release()
		if err != nil {
			return nil, fmt.Errorf("core: compress: %w", err)
		}
	}
	if o != nil {
		o.Counter("core.compress.fields").Add(1)
		o.Counter("core.compress.bytes_out").Add(bytesOut)
	}
	return h, nil
}

// segmentWriter is the one protocol every storage layout's writer follows:
// segments in (level, plane) order, then Commit with the metadata blob —
// the artifact appears only then — or Abort, which leaves nothing behind
// and is a no-op after Commit. storage.StreamWriter and
// storage.TieredWriter implement it.
type segmentWriter interface {
	SegmentSink
	Commit(meta []byte) error
	Abort()
}

// streamTo commits through w the artifact whose segments produce writes
// into the sink it is handed: segments reach storage as they arrive, and
// the header — complete only once produce returns — is the metadata blob
// of the commit. On any error nothing is left behind.
func streamTo(w segmentWriter, produce func(SegmentSink) (*Header, error)) (*Header, error) {
	defer w.Abort()
	h, err := produce(w)
	if err != nil {
		return nil, err
	}
	meta, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("core: marshal header: %w", err)
	}
	if err := w.Commit(meta); err != nil {
		return nil, err
	}
	return h, nil
}

// streamToFile is streamTo a segment-store file at path.
func streamToFile(path string, produce func(SegmentSink) (*Header, error)) (*Header, error) {
	w, err := storage.CreateStream(path)
	if err != nil {
		return nil, err
	}
	return streamTo(w, produce)
}

// streamToDir is streamTo a tiered directory: each level's segments land in
// the level file of the tier hier places it on.
func streamToDir(dir string, hier storage.Hierarchy, produce func(SegmentSink) (*Header, error)) (*Header, error) {
	w, err := storage.CreateTiered(dir, hier)
	if err != nil {
		return nil, err
	}
	return streamTo(w, func(sink SegmentSink) (*Header, error) {
		h, err := produce(sink)
		if err == nil && len(hier.Placement) != len(h.Levels) {
			err = fmt.Errorf("core: hierarchy places %d levels, field has %d",
				len(hier.Placement), len(h.Levels))
		}
		return h, err
	})
}

// CompressToFile streams the full compression pipeline straight into a
// segment-store file. The file is byte-identical to Compress + WriteFile at
// every worker count, without ever materializing the artifact in memory.
//
// CompressToFile consumes t: the transform runs in t's own data, so the
// field is never copied, and t must not be used afterwards (its dims stay
// readable).
func CompressToFile(t *grid.Tensor, cfg Config, fieldName string, timestep int, path string) (*Header, error) {
	return streamToFile(path, func(sink SegmentSink) (*Header, error) {
		return compressTo(t, true, cfg, fieldName, timestep, sink)
	})
}

// CompressToTiered streams the compression pipeline into a tiered store.
// Equivalent to Compress + WriteTiered without the in-memory artifact. Like
// CompressToFile, it consumes t.
func CompressToTiered(t *grid.Tensor, cfg Config, fieldName string, timestep int, dir string, hier storage.Hierarchy) (*Header, error) {
	return streamToDir(dir, hier, func(sink SegmentSink) (*Header, error) {
		return compressTo(t, true, cfg, fieldName, timestep, sink)
	})
}

// memorySink accumulates segments into a Compressed, copying each recycled
// payload buffer into an exact-size allocation — the same per-segment
// allocation profile the pre-streaming Compress had.
type memorySink struct {
	segments [][][]byte
	planes   int
}

// WriteSegment implements SegmentSink.
func (s *memorySink) WriteSegment(id storage.SegmentID, payload []byte) error {
	for len(s.segments) <= id.Level {
		s.segments = append(s.segments, make([][]byte, s.planes))
	}
	seg := make([]byte, len(payload))
	copy(seg, payload)
	s.segments[id.Level][id.Plane] = seg
	return nil
}

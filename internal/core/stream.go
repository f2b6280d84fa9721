package core

import (
	"encoding/json"
	"fmt"

	"pmgard/internal/bitplane"
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
// only valid for the duration of the call (the pipeline recycles it), so a
// sink that retains bytes must copy. storage.StreamWriter and
// storage.TieredWriter both satisfy the interface.
type SegmentSink interface {
	WriteSegment(id storage.SegmentID, payload []byte) error
}

// CompressTo is the streaming compression pipeline: it refactors t and
// hands each compressed (level, plane) segment to sink the moment it is
// ready, instead of accumulating the artifact in memory. Stages overlap —
// while workers deflate the planes of level l, the driver encodes level
// l+1's bit-planes — through a bounded ordered pipeline (pool.Ordered), so
// segments reach the sink in exactly the deterministic (level, plane)
// order and the bytes are identical to the in-memory Compress path at
// every worker count.
//
// Peak payload memory is the pipeline window (≈ 2 × workers segments) plus
// at most two level encodings; segment buffers are recycled through
// bufpool. The returned header is complete (plane sizes filled in) only
// after CompressTo returns.
func CompressTo(t *grid.Tensor, cfg Config, fieldName string, timestep int, sink SegmentSink) (*Header, error) {
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
	dec, err := backend.Decompose(t, codecOptions(cfg.Decompose), workers, o)
	if err != nil {
		return nil, fmt.Errorf("core: decompose: %w", err)
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
		ValueRange:      t.Range(),
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
	// Levels and each level's PlaneSizes are pre-sized by the driver before
	// any plane of that level is submitted, so the consumer goroutine only
	// ever writes into slots it owns — no slice growth races.
	h.Levels = make([]LevelMeta, L)

	planes := cfg.Planes
	encs := make([]*bitplane.LevelEncoding, L)
	released := make([]bool, L)
	var bytesOut int64
	ci := lossless.NewCompressInstruments(o)
	sp := o.Span("lossless.compress", nil)
	sp.SetAttr("codec", cfg.Codec.Name())
	pipe := pool.NewOrdered(workers, 2*workers, pool.NewMetrics(o, "lossless.compress"), func(i int, payload []byte) error {
		l, k := i/planes, i%planes
		err := sink.WriteSegment(storage.SegmentID{Level: l, Plane: k}, payload)
		if err == nil {
			h.Levels[l].PlaneSizes[k] = int64(len(payload))
			bytesOut += int64(len(payload))
		}
		bufpool.PutBytes(payload)
		if k == planes-1 {
			// The level's last plane consumed in order means every plane of
			// the level has been produced; its encoding can go back to the
			// pools while later levels are still in flight.
			encs[l].Release()
			released[l] = true
		}
		return err
	})
	var encErr error
	for l := 0; l < L; l++ {
		enc, err := backend.EncodeLevel(dec.Coeffs(l), planes, workers, o)
		if err != nil {
			encErr = fmt.Errorf("core: encode level %d: %w", l, err)
			break
		}
		encs[l] = enc
		h.Levels[l] = LevelMeta{
			N:        enc.N,
			Exponent: enc.Exponent,
			// The header outlives the pooled encoding, so it takes a copy.
			ErrMatrix:    append([]float64(nil), enc.ErrMatrix...),
			PlaneSizes:   make([]int64, planes),
			RawPlaneSize: enc.PlaneSizeRaw(),
		}
		for k := 0; k < planes; k++ {
			bits := enc.Bits[k]
			raw := enc.PlaneSizeRaw()
			pipe.Submit(func(worker int) ([]byte, error) {
				// Capacity covers deflate's worst case (stored blocks) so the
				// steady-state append never grows the pooled buffer.
				dst := bufpool.Bytes(raw + raw/8 + 64)[:0]
				out, err := lossless.AppendCompress(cfg.Codec, dst, bits)
				if err != nil {
					bufpool.PutBytes(dst)
					return nil, err
				}
				ci.Observe(len(bits), len(out))
				return out, nil
			})
		}
	}
	werr := pipe.Wait()
	sp.End()
	for l, enc := range encs {
		if enc != nil && !released[l] {
			enc.Release()
		}
	}
	if werr != nil {
		return nil, fmt.Errorf("core: compress: %w", werr)
	}
	if encErr != nil {
		return nil, encErr
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
func CompressToFile(t *grid.Tensor, cfg Config, fieldName string, timestep int, path string) (*Header, error) {
	return streamToFile(path, func(sink SegmentSink) (*Header, error) {
		return CompressTo(t, cfg, fieldName, timestep, sink)
	})
}

// CompressToTiered streams the compression pipeline into a tiered store.
// Equivalent to Compress + WriteTiered without the in-memory artifact.
func CompressToTiered(t *grid.Tensor, cfg Config, fieldName string, timestep int, dir string, hier storage.Hierarchy) (*Header, error) {
	return streamToDir(dir, hier, func(sink SegmentSink) (*Header, error) {
		return CompressTo(t, cfg, fieldName, timestep, sink)
	})
}

// memorySink accumulates segments into a Compressed, copying each recycled
// pipeline buffer into an exact-size allocation — the same per-segment
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

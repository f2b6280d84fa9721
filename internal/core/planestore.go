package core

import (
	"context"
	"fmt"

	"pmgard/internal/lossless"
	"pmgard/internal/servecache"
	"pmgard/internal/storage"
)

// PlaneStore materializes decompressed plane bitsets from a segment source
// with full serve-path validation: coordinates are bounds-checked against
// the header, the compressed payload length is cross-checked against the
// manifest (a wrong-size segment is data corruption, not a plausible
// plane), and the lossless stage is resolved once at construction. It is
// the store-facing half of a shared session's fetch path, exported so
// servers that need servecache.Source semantics without a Session — the
// shard tier's node-side /planes endpoint — reuse exactly the session's
// read discipline. It is safe for concurrent use when src is.
type PlaneStore struct {
	h     *Header
	src   storage.SegmentSource
	codec lossless.Codec
}

// NewPlaneStore returns a plane store over h and src. src may be nil for a
// store that is never fetched from (a remote-only session); Fetch then
// fails cleanly instead of panicking.
func NewPlaneStore(h *Header, src storage.SegmentSource) (*PlaneStore, error) {
	lc, err := lossless.ByName(h.CodecName)
	if err != nil {
		return nil, err
	}
	return &PlaneStore{h: h, src: src, codec: lc}, nil
}

// FetchPlane implements servecache.Source by reading and decompressing the
// keyed plane from the store; ctx is typically the cache's flight context,
// alive as long as any waiter wants the plane.
func (p *PlaneStore) FetchPlane(ctx context.Context, key servecache.Key) ([]byte, int64, error) {
	return p.Fetch(ctx, key.Level, key.Plane)
}

// Fetch reads plane (level, plane) from the store and decompresses it. It
// returns the plane bitset and the compressed payload bytes the fetch
// moved; on error the payload is the bytes a failed transfer still
// delivered (callers account them as wasted). Out-of-range coordinates
// fail before any I/O.
func (p *PlaneStore) Fetch(ctx context.Context, level, plane int) ([]byte, int64, error) {
	if p.src == nil {
		return nil, 0, fmt.Errorf("core: plane store has no segment source")
	}
	if level < 0 || level >= len(p.h.Levels) {
		return nil, 0, fmt.Errorf("core: level %d out of [0,%d)", level, len(p.h.Levels))
	}
	if plane < 0 || plane >= p.h.Planes {
		return nil, 0, fmt.Errorf("core: plane %d out of [0,%d) on level %d", plane, p.h.Planes, level)
	}
	seg, err := p.src.Segment(ctx, level, plane)
	if err != nil {
		return nil, int64(len(seg)), err
	}
	if want := p.h.Levels[level].PlaneSizes[plane]; int64(len(seg)) != want {
		return nil, int64(len(seg)), fmt.Errorf("core: level %d plane %d payload is %d bytes, manifest says %d: %w",
			level, plane, len(seg), want, storage.ErrCorrupt)
	}
	raw, err := p.codec.Decompress(seg, p.h.Levels[level].RawPlaneSize)
	if err != nil {
		return nil, int64(len(seg)), fmt.Errorf("core: level %d plane %d: %w", level, plane, err)
	}
	return raw, int64(len(seg)), nil
}

package core

import (
	"context"
	"fmt"

	"pmgard/internal/lossless"
	"pmgard/internal/obs"
	"pmgard/internal/servecache"
	"pmgard/internal/storage"
)

// PlaneStore materializes decompressed plane bitsets from a segment source
// with full serve-path validation: coordinates are bounds-checked against
// the header, the compressed payload length is cross-checked against the
// manifest (a wrong-size segment is data corruption, not a plausible
// plane), and the lossless stage is resolved once at construction. It is
// the local servecache.Source every read path ends in — one-shot
// retrievals, sessions, the node role's /planes endpoint — so all of them
// share one read discipline. It is safe for concurrent use when src is.
type PlaneStore struct {
	h     *Header
	src   storage.SegmentSource
	codec lossless.Codec
}

// NewPlaneStore returns a plane store over h and src.
func NewPlaneStore(h *Header, src storage.SegmentSource) (*PlaneStore, error) {
	lc, err := lossless.ByName(h.CodecName)
	if err != nil {
		return nil, err
	}
	return &PlaneStore{h: h, src: src, codec: lc}, nil
}

// PlaneKey returns the shared-cache key of one plane of the field: the
// backend ID plus the "<field>@<timestep>" namespace every reader of the
// field derives here, so /planes traffic, local sessions and router
// sessions fill one set of entries. Two distinct stores serving fields with
// colliding names and timesteps must not share a cache.
func (h *Header) PlaneKey(level, plane int) servecache.Key {
	return servecache.Key{Codec: h.Codec(), Field: fmt.Sprintf("%s@%d", h.FieldName, h.Timestep), Level: level, Plane: plane}
}

// PlaneRun returns the shared-cache run of the given planes of one level,
// under PlaneKey's namespace.
func (h *Header) PlaneRun(level int, planes []int) servecache.Run {
	k := h.PlaneKey(level, 0)
	return servecache.Run{Codec: k.Codec, Field: k.Field, Level: level, Planes: planes}
}

// FetchPlanes implements servecache.Source: it reads the run's planes from
// the store one segment after the other, in run order, and stops after the
// first that fails — a dead tier costs one plane's retry budget, not the
// run's. Behind a cache, ctx is the fetch context, alive as long as any
// waiter wants a plane of the run.
func (p *PlaneStore) FetchPlanes(ctx context.Context, run servecache.Run) []servecache.Plane {
	out := make([]servecache.Plane, 0, len(run.Planes))
	for _, plane := range run.Planes {
		raw, payload, err := p.fetchPlane(ctx, run.Level, plane)
		out = append(out, servecache.Plane{Raw: raw, Payload: payload, Err: err})
		if err != nil {
			break
		}
	}
	return out
}

// fetchPlane reads plane (level, plane) from the store and decompresses it
// under a session.fetch_plane span. It returns the plane bitset and the
// compressed payload bytes the fetch moved; on error the payload is the
// bytes a failed transfer still delivered (callers account them as wasted).
// Out-of-range coordinates and an ended ctx fail before any I/O.
func (p *PlaneStore) fetchPlane(ctx context.Context, level, plane int) (raw []byte, payload int64, err error) {
	sp := obs.SpanFromContext(ctx).Child("session.fetch_plane")
	sp.SetAttr("level", level)
	sp.SetAttr("plane", plane)
	defer func() {
		sp.SetAttr("bytes", payload)
		sp.Fail(err)
		sp.End()
	}()
	if err := ctx.Err(); err != nil {
		return nil, 0, err
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
	// A payload of the manifest's length that will not inflate to the
	// header's plane size is bad bytes (a store without checksums hands them
	// over as read): corruption, permanent, so a session degrades around it.
	raw, err = p.codec.Decompress(seg, p.h.Levels[level].RawPlaneSize)
	if err != nil {
		return nil, int64(len(seg)), fmt.Errorf("core: level %d plane %d: %w: %w", level, plane, err, storage.ErrCorrupt)
	}
	return raw, int64(len(seg)), nil
}

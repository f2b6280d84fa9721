package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"pmgard/internal/core"
	"pmgard/internal/obs"
	"pmgard/internal/storage"
)

// segmentCommitter is the writer protocol both storage layouts follow.
type segmentCommitter interface {
	WriteSegment(id storage.SegmentID, payload []byte) error
	Commit(meta []byte) error
}

// TestAddStoreRefusesMalformedHeader commits the segments of a real field
// under a header with one defect per row, in both layouts, and requires
// AddStore to refuse it as corruption naming what is wrong — before any
// reader sizes a buffer from it. The raw-size row is the one that used to
// kill the process: the store opened, and the first /refine reaching that
// level pre-sized a 32 TiB inflate buffer (a fatal, unrecoverable out of
// memory); it runs in-process here, so a regression takes the test binary
// down with it.
func TestAddStoreRefusesMalformedHeader(t *testing.T) {
	c := buildCompressed(t, "Jx")
	finest := len(c.Header.Levels) - 1
	hier, err := storage.DefaultHierarchy(len(c.Header.Levels))
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name string
		// forge damages a private copy of the header.
		forge func(h *core.Header)
		// want is a fragment of the refusal.
		want string
	}{
		{"zero planes", func(h *core.Header) { h.Planes = 0 }, "0 planes"},
		{"61 planes", func(h *core.Header) { h.Planes = 61 }, "61 planes"},
		{"plane sizes short", func(h *core.Header) { h.Levels[1].PlaneSizes = h.Levels[1].PlaneSizes[:h.Planes-1] }, "level 1: 31 plane sizes"},
		{"error matrix short", func(h *core.Header) { h.Levels[2].ErrMatrix = h.Levels[2].ErrMatrix[:h.Planes] }, "level 2: 32 error-matrix entries"},
		{"negative plane size", func(h *core.Header) { h.Levels[1].PlaneSizes[3] = -1 }, "level 1: plane 3 size -1"},
		{"negative count", func(h *core.Header) { h.Levels[2].N = -8 }, "level 2: -8 coefficients"},
		{"raw plane size 1<<45", func(h *core.Header) { h.Levels[finest].RawPlaneSize = 1 << 45 }, fmt.Sprintf("level %d: raw plane size 35184372088832", finest)},
		{"raw plane size off by one", func(h *core.Header) { h.Levels[0].RawPlaneSize++ }, "level 0: raw plane size"},
	}
	layouts := []struct {
		name   string
		create func(path string) (segmentCommitter, error)
	}{
		{"flat", func(path string) (segmentCommitter, error) { return storage.CreateStream(path) }},
		{"tiered", func(path string) (segmentCommitter, error) { return storage.CreateTiered(path, hier) }},
	}
	// commit writes c's segments under header h to a fresh store.
	commit := func(t *testing.T, layout int, h *core.Header) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "jx")
		w, err := layouts[layout].create(path)
		if err != nil {
			t.Fatal(err)
		}
		for l := range c.Header.Levels {
			for k := 0; k < c.Header.Planes; k++ {
				seg, err := c.Segment(context.Background(), l, k)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.WriteSegment(storage.SegmentID{Level: l, Plane: k}, seg); err != nil {
					t.Fatal(err)
				}
			}
		}
		meta, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(meta); err != nil {
			t.Fatal(err)
		}
		return path
	}
	newServer := func(t *testing.T) *Server {
		t.Helper()
		srv, err := New(Config{CacheBytes: 64 << 20, Obs: obs.New()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return srv
	}

	for li, lay := range layouts {
		// The untouched header opens and serves: the rows fail on their
		// defect, not on the way they are written.
		srv := newServer(t)
		if err := srv.AddStore(commit(t, li, &c.Header)); err != nil {
			t.Fatalf("%s: untouched header refused: %v", lay.name, err)
		}
		ts := httptest.NewServer(srv.Handler())
		if res := doRefine(t, ts, "field=Jx&abs=1e-300"); res.status != http.StatusOK || res.body.Degraded {
			t.Fatalf("%s: untouched header: refine status %d degraded %v", lay.name, res.status, res.body.Degraded)
		}
		ts.Close()

		for _, row := range rows {
			h := c.Header
			h.Levels = append([]core.LevelMeta(nil), c.Header.Levels...)
			for l := range h.Levels {
				h.Levels[l].PlaneSizes = append([]int64(nil), h.Levels[l].PlaneSizes...)
			}
			row.forge(&h)
			path := commit(t, li, &h)
			err := newServer(t).AddStore(path)
			if !errors.Is(err, storage.ErrCorrupt) || !strings.Contains(err.Error(), row.want) {
				t.Errorf("%s %s: AddStore error %v, want ErrCorrupt naming %q", lay.name, row.name, err, row.want)
			}
			if _, _, err := core.OpenFile(path); !errors.Is(err, storage.ErrCorrupt) {
				t.Errorf("%s %s: OpenFile error %v, want ErrCorrupt", lay.name, row.name, err)
			}
		}
	}
}

package core

import (
	"encoding/json"
	"fmt"

	"pmgard/internal/storage"
)

// WriteTiered persists the compressed field across a storage hierarchy:
// each coefficient level's plane segments land in the directory of the tier
// the hierarchy assigns it to (§II-A — hot coarse levels on fast tiers,
// cold fine levels on slow ones), through the same streaming writer
// CompressToTiered uses.
func (c *Compressed) WriteTiered(dir string, h storage.Hierarchy) error {
	_, err := streamToTiered(dir, h, c.replay)
	return err
}

// OpenTiered opens a tiered store directory written by WriteTiered and
// parses its header. The returned store is itself the
// storage.SegmentSource to retrieve from.
func OpenTiered(dir string) (*Header, *storage.TieredStore, error) {
	st, err := storage.OpenTiered(dir)
	if err != nil {
		return nil, nil, err
	}
	var h Header
	if err := json.Unmarshal(st.Meta(), &h); err != nil {
		st.Close()
		return nil, nil, fmt.Errorf("core: parse header: %w", err)
	}
	return &h, st, nil
}

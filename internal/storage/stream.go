package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// headerSize is the byte length of a store header (magic through table) for
// the given metadata and segment counts.
func headerSize(metaLen, segCount int) uint64 {
	return uint64(4 + 4 + 4 + metaLen + 4 + segCount*tableEntrySize)
}

// buildHeader serializes the store header for segs, which must already be
// in (level, plane) order with absolute offsets assigned.
func buildHeader(meta []byte, segs []segEntry) []byte {
	buf := make([]byte, 0, headerSize(len(meta), len(segs)))
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, formatVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(meta)))
	buf = append(buf, meta...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(segs)))
	for _, s := range segs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.id.Level))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.id.Plane))
		buf = binary.LittleEndian.AppendUint64(buf, s.offset)
		buf = binary.LittleEndian.AppendUint64(buf, s.size)
		buf = binary.LittleEndian.AppendUint32(buf, s.crc)
	}
	return buf
}

// StreamWriter builds a segment store file without holding payloads in
// memory. Payloads are appended to a spill file as they arrive; Commit
// writes the header (whose table — and the caller's metadata blob — are
// only known once every segment has been written) to a temporary sibling
// of the destination, splices the spill behind it and renames the result
// into place. The store format lays payloads out in (level, plane) order
// and StreamWriter requires exactly that arrival order — core.CompressTo
// hands segments over in it at any worker count — so the spill file is
// already the final data section.
//
// Memory held is one table entry (28 bytes) per segment plus a copy
// buffer; payload bytes never accumulate.
type StreamWriter struct {
	path  string
	spill *os.File
	tmp   *os.File // the committed file before its rename; nil outside Commit
	segs  []segEntry
	off   uint64
	done  bool
}

// CreateStream starts a streaming segment store at path. The final file
// appears only at Commit, in one rename, so a file already at path stays
// whole — and readers that hold it open keep reading it — until then; a
// ".spill" sibling holds the payload bytes meanwhile.
func CreateStream(path string) (*StreamWriter, error) {
	spill, err := os.Create(path + ".spill")
	if err != nil {
		return nil, fmt.Errorf("storage: create spill for %s: %w", path, err)
	}
	return &StreamWriter{path: path, spill: spill}, nil
}

// WriteSegment appends one payload. Segments must arrive in strictly
// increasing (level, plane) order — the on-disk payload order — so the
// spill file is already final-layout and Commit is a straight splice. The
// payload is fully written before return; the caller may recycle it.
func (w *StreamWriter) WriteSegment(id SegmentID, payload []byte) error {
	if w.done {
		return fmt.Errorf("storage: write to finished stream writer")
	}
	if id.Level < 0 || id.Plane < 0 {
		return fmt.Errorf("storage: invalid segment id %+v", id)
	}
	if n := len(w.segs); n > 0 {
		prev := w.segs[n-1].id
		if id.Level < prev.Level || (id.Level == prev.Level && id.Plane <= prev.Plane) {
			return fmt.Errorf("storage: stream segments must arrive in (level, plane) order (got %+v after %+v)", id, prev)
		}
	}
	if _, err := w.spill.Write(payload); err != nil {
		return fmt.Errorf("storage: spill segment %+v: %w", id, err)
	}
	w.segs = append(w.segs, segEntry{
		id:     id,
		offset: w.off, // relative to data start; rebased at Commit
		size:   uint64(len(payload)),
		crc:    crc32.ChecksumIEEE(payload),
	})
	w.off += uint64(len(payload))
	return nil
}

// Commit finalizes the store with the opaque metadata blob: it writes the
// header and table to a ".tmp" sibling of the destination, splices the
// spilled payloads behind them and renames the result over the
// destination. On any error the destination is left as it was, and both
// the spill and the temporary file are removed.
func (w *StreamWriter) Commit(meta []byte) error {
	if w.done {
		return fmt.Errorf("storage: commit on finished stream writer")
	}
	defer w.Abort()
	base := headerSize(len(meta), len(w.segs))
	for i := range w.segs {
		w.segs[i].offset += base
	}
	if _, err := w.spill.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("storage: rewind spill: %w", err)
	}
	f, err := os.Create(w.path + ".tmp")
	if err != nil {
		return fmt.Errorf("storage: create %s: %w", w.path, err)
	}
	w.tmp = f
	if _, err := f.Write(buildHeader(meta, w.segs)); err != nil {
		return fmt.Errorf("storage: write header: %w", err)
	}
	if _, err := io.Copy(f, w.spill); err != nil {
		return fmt.Errorf("storage: splice payloads: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: close: %w", err)
	}
	if err := os.Rename(f.Name(), w.path); err != nil {
		return fmt.Errorf("storage: commit %s: %w", w.path, err)
	}
	w.tmp = nil // renamed into place: Abort must not remove it
	return nil
}

// Abort discards the spill file, and the temporary file of an unfinished
// Commit, without producing a store. Safe to call after Commit (it is then
// a no-op), which makes `defer w.Abort()` the idiomatic cleanup.
func (w *StreamWriter) Abort() {
	if w.done {
		return
	}
	w.done = true
	for _, f := range []*os.File{w.spill, w.tmp} {
		if f != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}
	w.spill, w.tmp = nil, nil
}

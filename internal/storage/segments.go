package storage

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// File format of a segment store:
//
//	magic    [4]byte  "PMGD"
//	version  uint32   (2)
//	metaLen  uint32
//	meta     [metaLen]byte        opaque, owned by the caller
//	segCount uint32
//	table    segCount × {level uint32, plane uint32, offset uint64,
//	                     size uint64, crc32 uint32 (IEEE, of the payload)}
//	data     concatenated segment payloads
//
// Offsets in the table are absolute file offsets, so segments can be read
// with a single ranged read each — the store never loads the whole file.
// Every ranged read is verified against the table's CRC before it reaches
// the decoder.
const (
	magic          = "PMGD"
	formatVersion  = 2
	tableEntrySize = 4 + 4 + 8 + 8 + 4
)

// SegmentID addresses one stored bit-plane segment.
type SegmentID struct {
	Level int
	Plane int
}

// SegmentSource yields compressed plane payloads during retrieval. It is
// the one (level, plane) → payload interface of the module: stores
// implement it, the resilience wrappers (RetryingSource, the breaker and
// fault-injection sources) wrap it, and retrieval reads through it.
//
// Implementations must be safe for concurrent Segment calls — the parallel
// retrieval path fetches independent (level, plane) segments from multiple
// goroutines — and must honor ctx: a read returns early with ctx's error
// once ctx ends, and every wrapper forwards ctx to the source it wraps so
// deadlines, cancellation and trace values reach the innermost read.
type SegmentSource interface {
	// Segment returns the compressed payload of plane k of level l.
	Segment(ctx context.Context, level, plane int) ([]byte, error)
}

type segEntry struct {
	id     SegmentID
	offset uint64
	size   uint64
	crc    uint32
}

// Store reads segments from a store file using ranged reads. It tracks the
// number of payload bytes and requests issued, which the experiments use as
// the exact measure of I/O cost. Store is safe for concurrent reads.
type Store struct {
	f    *os.File
	meta []byte
	segs map[SegmentID]segEntry

	mu        sync.Mutex
	bytesRead int64
	requests  int64
}

// Open opens a segment store file and parses its header and table.
func Open(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	st := &Store{f: f, segs: make(map[SegmentID]segEntry)}
	if err := st.readHeader(); err != nil {
		f.Close()
		return nil, err
	}
	return st, nil
}

func (s *Store) readHeader() error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("storage: stat: %w", err)
	}
	fileSize := uint64(fi.Size())
	var fixed [12]byte
	if _, err := io.ReadFull(s.f, fixed[:]); err != nil {
		return fmt.Errorf("storage: read header: %w", err)
	}
	if string(fixed[:4]) != magic {
		return fmt.Errorf("storage: bad magic %q", fixed[:4])
	}
	if v := binary.LittleEndian.Uint32(fixed[4:8]); v != formatVersion {
		return fmt.Errorf("storage: unsupported format version %d", v)
	}
	metaLen := binary.LittleEndian.Uint32(fixed[8:12])
	if uint64(metaLen) > fileSize || metaLen > 1<<24 {
		return fmt.Errorf("storage: implausible metadata length %d", metaLen)
	}
	s.meta = make([]byte, metaLen)
	if _, err := io.ReadFull(s.f, s.meta); err != nil {
		return fmt.Errorf("storage: read metadata: %w", err)
	}
	var cntBuf [4]byte
	if _, err := io.ReadFull(s.f, cntBuf[:]); err != nil {
		return fmt.Errorf("storage: read table size: %w", err)
	}
	count := binary.LittleEndian.Uint32(cntBuf[:])
	if uint64(count)*tableEntrySize > fileSize {
		return fmt.Errorf("storage: implausible segment count %d", count)
	}
	table := make([]byte, int(count)*tableEntrySize)
	if _, err := io.ReadFull(s.f, table); err != nil {
		return fmt.Errorf("storage: read table: %w", err)
	}
	for i := 0; i < int(count); i++ {
		e := table[i*tableEntrySize:]
		id := SegmentID{
			Level: int(binary.LittleEndian.Uint32(e[0:4])),
			Plane: int(binary.LittleEndian.Uint32(e[4:8])),
		}
		entry := segEntry{
			id:     id,
			offset: binary.LittleEndian.Uint64(e[8:16]),
			size:   binary.LittleEndian.Uint64(e[16:24]),
			crc:    binary.LittleEndian.Uint32(e[24:28]),
		}
		// Reject entries pointing outside the file before anything can
		// allocate or read based on them.
		if entry.offset > fileSize || entry.size > fileSize-entry.offset {
			return fmt.Errorf("storage: segment %+v extends past end of file", id)
		}
		s.segs[id] = entry
	}
	return nil
}

// Meta returns the opaque metadata blob stored at creation.
func (s *Store) Meta() []byte { return s.meta }

// Segments returns the IDs of all stored segments (unordered).
func (s *Store) Segments() []SegmentID {
	out := make([]SegmentID, 0, len(s.segs))
	for id := range s.segs {
		out = append(out, id)
	}
	return out
}

// SegmentSize returns the stored (compressed) size of a segment.
func (s *Store) SegmentSize(id SegmentID) (int64, error) {
	e, ok := s.segs[id]
	if !ok {
		return 0, fmt.Errorf("storage: segment %+v not found", id)
	}
	return int64(e.size), nil
}

// ReadSegment performs one ranged read of a segment's payload.
func (s *Store) ReadSegment(id SegmentID) ([]byte, error) {
	e, ok := s.segs[id]
	if !ok {
		return nil, fmt.Errorf("storage: segment %+v not found", id)
	}
	buf := make([]byte, e.size)
	if _, err := s.f.ReadAt(buf, int64(e.offset)); err != nil {
		return nil, fmt.Errorf("storage: read segment %+v: %w", id, err)
	}
	if got := crc32.ChecksumIEEE(buf); got != e.crc {
		return nil, fmt.Errorf("storage: segment %+v checksum mismatch (got %08x, want %08x)", id, got, e.crc)
	}
	s.mu.Lock()
	s.bytesRead += int64(e.size)
	s.requests++
	s.mu.Unlock()
	return buf, nil
}

// Segment implements SegmentSource over ReadSegment. A local file read
// cannot be interrupted mid-syscall, so cancellation is checked at entry.
func (s *Store) Segment(ctx context.Context, level, plane int) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.ReadSegment(SegmentID{Level: level, Plane: plane})
}

// BytesRead returns the total payload bytes fetched so far.
func (s *Store) BytesRead() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytesRead
}

// Requests returns the number of ranged reads issued so far.
func (s *Store) Requests() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requests
}

// ResetCounters zeroes the I/O accounting counters.
func (s *Store) ResetCounters() {
	s.mu.Lock()
	s.bytesRead, s.requests = 0, 0
	s.mu.Unlock()
}

// Close releases the underlying file.
func (s *Store) Close() error { return s.f.Close() }

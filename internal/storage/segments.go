package storage

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"pmgard/internal/obs"
)

// File format of a segment store file (the flat layout):
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

// RunSource is a SegmentSource that can also read several planes of one
// level as one unit — a shard node answering one request for them. The
// resilience wrappers (RetryingSource, the breaker source) forward Run and
// guard the run as they guard a segment: one retry budget, one breaker
// verdict, one span per run, under the identity of its first plane, which is
// also the only plane an error speaks for.
type RunSource interface {
	SegmentSource
	// Run reads planes — at least one, all of level — and returns, back to
	// back, the payloads of the longest prefix of them the source could
	// serve. An error means not even planes[0] could be had.
	Run(ctx context.Context, level int, planes []int) ([]byte, error)
}

// segEntry is one segment's extent: a byte range of one payload file and
// the CRC32 of its bytes. Writers fill everything but file.
type segEntry struct {
	id     SegmentID
	file   *storeFile
	offset uint64
	size   uint64
	crc    uint32
}

// storeFile is one file holding payloads — the .pmgd file itself, or level
// l's file of a tiered directory (then Store.files[l]) — and the count of
// what was read from it.
type storeFile struct {
	path string
	tier string   // the tier the level is placed on; "" in the flat layout
	f    *os.File // nil until first use; Store.mu guards f and size
	size uint64   // length at open

	bytes, requests atomic.Int64
}

// Store reads segments with one ranged read each from either on-disk
// layout — a .pmgd file or a tiered directory (see TieredWriter) — behind
// one index of extents. It counts the payload bytes and requests issued,
// which the experiments use as the exact measure of I/O cost. Payload files
// open on first use and stay open until Close. Store is safe for concurrent
// reads.
type Store struct {
	meta  []byte
	segs  map[SegmentID]segEntry
	files []*storeFile
	// unverified: a version-1 manifest has no checksums, only lengths.
	unverified bool
	mu         sync.Mutex
	o          *obs.Obs
}

// Open opens a segment store and parses its index. The layout follows from
// what path is: a regular file is a .pmgd store file, a directory is a
// tiered store and must hold a manifest.json.
func Open(path string) (*Store, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	s := &Store{segs: make(map[SegmentID]segEntry)}
	if fi.IsDir() {
		err = s.readManifest(path)
	} else {
		err = s.readHeader(path)
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// readHeader fills the index from a .pmgd file's header and table.
func (s *Store) readHeader(path string) error {
	s.files = []*storeFile{{path: path}}
	f, fileSize, err := s.open(s.files[0])
	if err != nil {
		return err
	}
	var fixed [12]byte
	if _, err := io.ReadFull(f, fixed[:]); err != nil {
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
	if _, err := io.ReadFull(f, s.meta); err != nil {
		return fmt.Errorf("storage: read metadata: %w", err)
	}
	var cntBuf [4]byte
	if _, err := io.ReadFull(f, cntBuf[:]); err != nil {
		return fmt.Errorf("storage: read table size: %w", err)
	}
	count := binary.LittleEndian.Uint32(cntBuf[:])
	if uint64(count)*tableEntrySize > fileSize {
		return fmt.Errorf("storage: implausible segment count %d", count)
	}
	table := make([]byte, int(count)*tableEntrySize)
	if _, err := io.ReadFull(f, table); err != nil {
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
			file:   s.files[0],
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

// TierOf returns the name of the tier holding level l of a tiered
// directory; a .pmgd file has no tiers.
func (s *Store) TierOf(level int) (string, error) {
	if level < 0 || level >= len(s.files) || s.files[level].tier == "" {
		return "", fmt.Errorf("storage: no tier for level %d", level)
	}
	return s.files[level].tier, nil
}

// ReadSegment performs one ranged read of a segment's payload and verifies
// it. A payload that cannot be what was written — the index does not hold
// its id (a flipped level/plane field of a .pmgd table entry, a manifest
// level shorter than the header's plane count), its extent lies past the
// end of its file, the read comes back short, the bytes fail their checksum
// — wraps ErrCorrupt on every layout: re-reading rotted or truncated media
// cannot recover the bytes, so the error classifies as permanent.
func (s *Store) ReadSegment(id SegmentID) ([]byte, error) {
	e, ok := s.segs[id]
	if !ok {
		return nil, fmt.Errorf("storage: segment %+v not found in the index: %w", id, ErrCorrupt)
	}
	f, fileSize, err := s.open(e.file)
	if err != nil {
		return nil, err
	}
	// Checked before the extent is allocated; a file that shrank since it
	// was opened is caught by the short-read check below.
	if e.offset > fileSize || e.size > fileSize-e.offset {
		return nil, fmt.Errorf("storage: segment %+v extends past the end of %s (truncated): %w",
			id, e.file.path, ErrCorrupt)
	}
	buf := make([]byte, e.size)
	// Tolerating io.EOF with a partial n would hand a zero-padded buffer to
	// a checksum-less manifest, which accepts it silently.
	n, err := f.ReadAt(buf, int64(e.offset))
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("storage: read segment %+v: %w", id, err)
	}
	if n != len(buf) {
		return nil, fmt.Errorf("storage: segment %+v short read (%d of %d bytes, %s truncated): %w",
			id, n, len(buf), e.file.path, ErrCorrupt)
	}
	if !s.unverified {
		if got := crc32.ChecksumIEEE(buf); got != e.crc {
			return nil, fmt.Errorf("storage: segment %+v checksum mismatch (got %08x, want %08x): %w",
				id, got, e.crc, ErrCorrupt)
		}
	}
	e.file.bytes.Add(int64(n))
	e.file.requests.Add(1)
	if tier := e.file.tier; tier != "" && s.o != nil {
		s.o.Counter("storage.tier." + tier + ".bytes_read").Add(int64(n))
		s.o.Counter("storage.tier." + tier + ".requests").Add(1)
	}
	return buf, nil
}

// open returns sf's handle and its length at open, opening it on first use.
func (s *Store) open(sf *storeFile) (*os.File, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sf.f == nil {
		f, err := os.Open(sf.path)
		if err != nil {
			return nil, 0, fmt.Errorf("storage: open %s: %w", sf.path, err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("storage: stat %s: %w", sf.path, err)
		}
		sf.f, sf.size = f, uint64(fi.Size())
	}
	return sf.f, sf.size, nil
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
func (s *Store) BytesRead() (n int64) {
	for _, sf := range s.files {
		n += sf.bytes.Load()
	}
	return n
}

// Requests returns the number of ranged reads issued so far.
func (s *Store) Requests() (n int64) {
	for _, sf := range s.files {
		n += sf.requests.Load()
	}
	return n
}

// TierBytes returns the payload bytes read from each tier so far; empty for
// a store without tiers.
func (s *Store) TierBytes() map[string]int64 { b, _ := s.tierCounts(); return b }

// TierRequests returns the ranged-read counts per tier so far.
func (s *Store) TierRequests() map[string]int64 { _, r := s.tierCounts(); return r }

// tierCounts sums the counts of the files read so far by the tier they are on.
func (s *Store) tierCounts() (bytes, requests map[string]int64) {
	bytes, requests = make(map[string]int64), make(map[string]int64)
	for _, sf := range s.files {
		if n := sf.requests.Load(); n > 0 && sf.tier != "" {
			bytes[sf.tier] += sf.bytes.Load()
			requests[sf.tier] += n
		}
	}
	return bytes, requests
}

// Instrument mirrors the per-tier accounting into o's registry as
// storage.tier.<name>.bytes_read / .requests counters, folding in bytes
// already read; a tier never read, and so a store without tiers, mirrors no
// names. Call before sharing the store across goroutines; a nil or
// metrics-less o is a no-op.
func (s *Store) Instrument(o *obs.Obs) {
	if o == nil || o.Metrics == nil {
		return
	}
	s.o = o
	bytes, requests := s.tierCounts()
	for tier, n := range requests {
		o.Counter("storage.tier." + tier + ".bytes_read").Add(bytes[tier])
		o.Counter("storage.tier." + tier + ".requests").Add(n)
	}
}

// ResetCounters zeroes the I/O accounting counters.
func (s *Store) ResetCounters() {
	for _, sf := range s.files {
		sf.bytes.Store(0)
		sf.requests.Store(0)
	}
}

// Close releases the payload files.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, sf := range s.files {
		if sf.f != nil {
			if err := sf.f.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

package fieldio

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"pmgard/internal/bufpool"
	"pmgard/internal/storage"
)

// Reader reads rectangular windows (tiles) of a field file through an
// io.ReaderAt, never materializing the whole payload: the out-of-core
// compression path reads one slab at a time from fields far larger than
// RAM. Reads of a window issue one ranged read per contiguous row run, cut
// into pieces of at most maxPiece values, so a slab-shaped window (full
// extent in every trailing dimension) costs one ranged read per 512 KiB.
//
// Reader is safe for concurrent ReadTile calls when the underlying
// io.ReaderAt is (os.File is).
type Reader struct {
	layout
	r      io.ReaderAt
	closer io.Closer
}

// maxHeaderBytes bounds the JSON header line of a field file.
const maxHeaderBytes = 1 << 20

// OpenReader opens a field file for windowed reads.
func OpenReader(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fieldio: open %s: %w", path, err)
	}
	r, err := NewWindowReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	return r, nil
}

// NewWindowReader builds a windowed reader over any io.ReaderAt holding a
// field file — a mmap region, a fault-injection wrapper, a remote blob
// adapter. The header is parsed eagerly — the package's one header parser;
// Close is a no-op for readers built this way (the caller owns r's
// lifetime).
func NewWindowReader(r io.ReaderAt) (*Reader, error) {
	header, dataOff, err := readHeaderAt(r)
	if err != nil {
		return nil, err
	}
	var meta Meta
	if err := json.Unmarshal(header, &meta); err != nil {
		return nil, fmt.Errorf("fieldio: parse header: %w", err)
	}
	if _, err := checkDims(meta.Dims); err != nil {
		return nil, err
	}
	return &Reader{layout: newLayout(meta, dataOff), r: r}, nil
}

// readHeaderAt reads the one-line JSON header through ranged reads and
// returns it with the payload's byte offset.
func readHeaderAt(r io.ReaderAt) ([]byte, int64, error) {
	var header []byte
	buf := make([]byte, 512)
	for off := int64(0); off < maxHeaderBytes; {
		n, err := r.ReadAt(buf, off)
		if i := bytes.IndexByte(buf[:n], '\n'); i >= 0 {
			header = append(header, buf[:i+1]...)
			return header, off + int64(i) + 1, nil
		}
		header = append(header, buf[:n]...)
		off += int64(n)
		if err == io.EOF {
			return nil, 0, fmt.Errorf("fieldio: read header: unterminated header line: %w", storage.ErrCorrupt)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("fieldio: read header: %w", err)
		}
	}
	return nil, 0, fmt.Errorf("fieldio: header exceeds %d bytes", maxHeaderBytes)
}

// Meta returns the parsed file header.
func (r *Reader) Meta() Meta { return r.meta }

// Close releases the file when the reader was built by OpenReader; a no-op
// for NewWindowReader readers.
func (r *Reader) Close() error {
	if r.closer == nil {
		return nil
	}
	return r.closer.Close()
}

// layout is what a window walk needs of a field file: its header, the byte
// offset of its payload, and the row-major strides of its dims.
type layout struct {
	meta    Meta
	dataOff int64
	strides []int
}

func newLayout(meta Meta, dataOff int64) layout {
	strides := make([]int, len(meta.Dims))
	s := 1
	for d := len(meta.Dims) - 1; d >= 0; d-- {
		strides[d] = s
		s *= meta.Dims[d]
	}
	return layout{meta: meta, dataOff: dataOff, strides: strides}
}

// maxPiece bounds the values one walk step moves (512 KiB of payload), so
// a whole-field Read or Write stages one cache-sized buffer instead of a
// copy of the field.
const maxPiece = 1 << 16

// walk is the one window walk. It checks the window [lo, lo+shape) against
// the field and the caller's vals values against the window's element
// count, then calls fn once per piece of at most maxPiece values of each
// contiguous row-major run of the window, in order: at is the piece's byte
// offset in the file, out its element offset in the window's own row-major
// order, and buf a pooled byte buffer of exactly one piece.
func (l *layout) walk(lo, shape []int, vals int, fn func(at int64, out int, buf []byte) error) error {
	dims := l.meta.Dims
	n, err := checkWindow(dims, lo, shape)
	if err != nil {
		return err
	}
	if vals != n {
		return fmt.Errorf("fieldio: buffer holds %d values, window has %d", vals, n)
	}
	run, outer := contiguousRun(dims, lo, shape)
	piece := min(run, maxPiece)
	buf := bufpool.Bytes(8 * piece)
	defer bufpool.PutBytes(buf)
	// idx iterates the window coordinates of dims [0, outer]; inner dims are
	// covered by each contiguous run.
	idx := make([]int, outer+1)
	for out := 0; out < n; out += run {
		off := 0
		for d := 0; d <= outer; d++ {
			off += (lo[d] + idx[d]) * l.strides[d]
		}
		if d := outer + 1; d < len(dims) {
			off += lo[d] * l.strides[d]
		}
		at := l.dataOff + 8*int64(off)
		for i := 0; i < run; i += piece {
			m := min(piece, run-i)
			if err := fn(at+8*int64(i), out+i, buf[:8*m]); err != nil {
				return err
			}
		}
		for d := outer; d >= 0; d-- {
			idx[d]++
			if idx[d] < shape[d] {
				break
			}
			idx[d] = 0
		}
	}
	return nil
}

// checkWindow validates a tile window against the field dims and returns
// the element count.
func checkWindow(dims, lo, shape []int) (int, error) {
	if len(lo) != len(dims) || len(shape) != len(dims) {
		return 0, fmt.Errorf("fieldio: window rank %d/%d does not match field rank %d", len(lo), len(shape), len(dims))
	}
	n := 1
	for d := range dims {
		if lo[d] < 0 || shape[d] < 1 || lo[d]+shape[d] > dims[d] {
			return 0, fmt.Errorf("fieldio: window [%d,%d) out of range on dim %d (extent %d)",
				lo[d], lo[d]+shape[d], d, dims[d])
		}
		n *= shape[d]
	}
	return n, nil
}

// contiguousRun returns the length in elements of the longest contiguous
// row-major run of the window and the index of the slowest dimension that
// varies across runs (-1 when the whole window is one run).
func contiguousRun(dims, lo, shape []int) (run, outer int) {
	run = 1
	d := len(dims) - 1
	for d >= 0 && lo[d] == 0 && shape[d] == dims[d] {
		run *= dims[d]
		d--
	}
	if d < 0 {
		return run, -1
	}
	return run * shape[d], d - 1
}

// ReadTile reads the window [lo, lo+shape) into dst, which must hold
// exactly the window's element count, in the window's own row-major order.
// A read that comes up short — the file is truncated mid-window — fails
// with an error wrapping storage.ErrCorrupt, the permanent fault class:
// re-reading a truncated file cannot recover the bytes. Transient errors
// from the underlying reader pass through unchanged, so retry/quarantine
// classifiers see them as usual.
func (r *Reader) ReadTile(lo, shape []int, dst []float64) error {
	return r.walk(lo, shape, len(dst), func(at int64, out int, buf []byte) error {
		if err := r.readRun(at, buf); err != nil {
			return err
		}
		for i := range dst[out : out+len(buf)/8] {
			dst[out+i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		return nil
	})
}

// readRun performs one ranged read of len(buf) payload bytes at byte offset
// at, classifying short reads as corruption.
func (r *Reader) readRun(at int64, buf []byte) error {
	n, err := r.r.ReadAt(buf, at)
	if n == len(buf) {
		return nil
	}
	if err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("fieldio: short read at offset %d (%d of %d bytes, truncated field file): %w",
			at, n, len(buf), storage.ErrCorrupt)
	}
	return fmt.Errorf("fieldio: read %d bytes at offset %d: %w", len(buf), at, err)
}

// TileWriter writes a field file tile by tile: CreateSized lays out the
// header and reserves the full payload extent, WriteTile fills windows in
// any order, Close finalizes. The streaming retrieve path uses it to emit
// reconstructions larger than RAM, and Write to store a whole field.
type TileWriter struct {
	layout
	f      *os.File
	closed bool
}

// CreateSized starts a tile-writable field file at path with the given
// metadata. meta.Dims must pass the readers' dims check, which runs before
// any file is created; a file it cannot lay out is removed again.
func CreateSized(path string, meta Meta) (*TileWriter, error) {
	n, err := checkDims(meta.Dims)
	if err != nil {
		return nil, err
	}
	header, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("fieldio: marshal header: %w", err)
	}
	header = append(header, '\n')
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("fieldio: create %s: %w", path, err)
	}
	dataOff := int64(len(header))
	if _, err := f.Write(header); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("fieldio: write header: %w", err)
	}
	if err := f.Truncate(dataOff + 8*int64(n)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("fieldio: reserve payload: %w", err)
	}
	return &TileWriter{layout: newLayout(meta, dataOff), f: f}, nil
}

// WriteTile stores src — the window's values in its own row-major order —
// at the window [lo, lo+shape).
func (w *TileWriter) WriteTile(lo, shape []int, src []float64) error {
	if w.closed {
		return fmt.Errorf("fieldio: write to closed tile writer")
	}
	return w.walk(lo, shape, len(src), func(at int64, out int, buf []byte) error {
		for i := range src[out : out+len(buf)/8] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(src[out+i]))
		}
		if _, err := w.f.WriteAt(buf, at); err != nil {
			return fmt.Errorf("fieldio: write tile at offset %d: %w", at, err)
		}
		return nil
	})
}

// Close finalizes the file.
func (w *TileWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return w.f.Close()
}

// TileAlloc hands out tile buffers from the shared float64 pool while
// accounting live and peak bytes — the peak-accounting hook the
// memory-budget tests assert against (a process-RSS assertion would be
// hostage to GC timing). A nil *TileAlloc allocates from the pool without
// accounting. Safe for concurrent use.
type TileAlloc struct {
	mu   sync.Mutex
	live int64
	peak int64
}

// Get returns a buffer of n float64s, counting its 8·n bytes live until
// the matching Put.
func (a *TileAlloc) Get(n int) []float64 {
	if a == nil {
		return bufpool.Float64s(n)
	}
	a.mu.Lock()
	a.live += 8 * int64(n)
	if a.live > a.peak {
		a.peak = a.live
	}
	a.mu.Unlock()
	return bufpool.Float64s(n)
}

// Put recycles a buffer obtained from Get. The accounting uses the
// buffer's length, so callers must return the slice as sized by Get.
func (a *TileAlloc) Put(s []float64) {
	if a == nil {
		bufpool.PutFloat64s(s)
		return
	}
	a.mu.Lock()
	a.live -= 8 * int64(len(s))
	a.mu.Unlock()
	bufpool.PutFloat64s(s)
}

// LiveBytes returns the currently outstanding tile bytes.
func (a *TileAlloc) LiveBytes() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.live
}

// PeakBytes returns the high-water mark of outstanding tile bytes.
func (a *TileAlloc) PeakBytes() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak
}

// Package codectest is the conformance suite every progressive-codec
// backend must pass (run under -race in CI for both in-tree backends). A
// backend package registers its codec and calls Run from a test:
//
//	func TestConformance(t *testing.T) { codectest.Run(t, mybackend.Codec{}) }
//
// The suite checks the whole ProgressiveCodec contract, not just the happy
// path:
//
//   - transform roundtrip identity (Decompose then Recompose is bit-exact)
//   - serialization roundtrip through the full core pipeline and the
//     on-disk segment store, with the backend ID surviving the header
//   - monotone reconstruction-error decay over uniform plane prefixes,
//     down to a noise floor far below the first prefix's error
//   - byte identity across worker counts 1/2/4/8 on both the compress and
//     the retrieve path
//   - hardening against adversarial inputs (NaN, ±Inf, denormal-only
//     fields): no panics, reconstructions stay finite
//   - degraded-prefix behavior: a permanently lost plane degrades a
//     session to the deepest consistent prefix with a truthful residual
//     error bound, instead of failing the refinement
//
// Tolerance satisfaction — achieved error ≤ the requested tolerance, or a
// degradation report — is held for every backend of internal/promise's
// matrix on every path, layout and fault; a new backend joins it there.
//
// The suite exercises backends through core.Compress/core.Retrieve where
// the contract spans layers, so a backend that passes is known to work
// behind every entry point (library facade, commands, serving tier), not
// just in isolation.
package codectest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"pmgard/internal/bitplane"
	"pmgard/internal/codec"
	"pmgard/internal/core"
	"pmgard/internal/grid"
	"pmgard/internal/retrieval"
	"pmgard/internal/storage"
)

// conformancePlanes is the bit-plane count the suite encodes with — the
// paper's configuration.
const conformancePlanes = 32

// options returns the transform options the suite runs under: the default
// five-level hierarchy with the mgard update step enabled (backends that
// have no update step ignore those fields by contract).
func options() codec.Options {
	return codec.Options{Levels: 5, Update: true, UpdateWeight: 0.25}
}

// config returns the core pipeline configuration pinned to backend c.
func config(c codec.ProgressiveCodec) core.Config {
	cfg := core.DefaultConfig()
	cfg.Backend = c.ID()
	return cfg
}

// smoothField builds a smooth 2-D test field: a product of low-frequency
// waves, the shape multilevel predictors are designed for.
func smoothField(n int) *grid.Tensor {
	f := grid.New(n, n)
	data := f.Data()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x := float64(i) / float64(n-1)
			y := float64(j) / float64(n-1)
			data[i*n+j] = math.Sin(3*x)*math.Cos(2*y) + 0.5*math.Sin(7*x*y)
		}
	}
	return f
}

// roughField builds a turbulent 2-D test field: smooth base plus
// deterministic high-amplitude noise, the shape that defeats interpolation.
func roughField(n int, seed int64) *grid.Tensor {
	f := smoothField(n)
	rng := rand.New(rand.NewSource(seed))
	data := f.Data()
	for i := range data {
		data[i] += rng.NormFloat64()
	}
	return f
}

// smallField3D builds a smooth 17³ field for the 3-D coverage of the suite.
func smallField3D() *grid.Tensor {
	n := 17
	f := grid.New(n, n, n)
	data := f.Data()
	ix := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				x := float64(i) / float64(n-1)
				y := float64(j) / float64(n-1)
				z := float64(k) / float64(n-1)
				data[ix] = math.Sin(3*x) * math.Cos(2*y) * math.Sin(x+z)
				ix++
			}
		}
	}
	return f
}

// Run executes the full conformance suite against backend c. Every backend
// registered with the codec registry must pass it; run it under -race so
// the worker-identity subtests double as data-race probes.
func Run(t *testing.T, c codec.ProgressiveCodec) {
	t.Helper()
	if c.ID() == "" {
		t.Fatal("backend has an empty ID")
	}
	t.Run("TransformRoundtrip", func(t *testing.T) { testTransformRoundtrip(t, c) })
	t.Run("StoreRoundtrip", func(t *testing.T) { testStoreRoundtrip(t, c) })
	t.Run("MonotoneErrorDecay", func(t *testing.T) { testMonotoneErrorDecay(t, c) })
	t.Run("WorkerByteIdentity", func(t *testing.T) { testWorkerByteIdentity(t, c) })
	t.Run("Hardening", func(t *testing.T) { testHardening(t, c) })
	t.Run("DegradedPrefix", func(t *testing.T) { testDegradedPrefix(t, c) })
}

// testTransformRoundtrip checks that Decompose followed by Recompose is the
// identity up to floating-point rounding, before any quantization enters
// the picture. Exact bit identity is unattainable — fl(fl(a−b)+b) ≠ a in
// general, so even a perfectly inverted transform re-rounds — but the
// residual must stay within a few ulps of the field's magnitude; everything
// beyond that is transform error the Err matrices would silently miss.
// Decompose must leave its field bit-identical, and DecomposeInPlace of a
// copy must give Decompose's streams bit for bit.
func testTransformRoundtrip(t *testing.T, c codec.ProgressiveCodec) {
	fields := map[string]*grid.Tensor{
		"smooth2d": smoothField(33),
		"rough2d":  roughField(33, 42),
		"smooth3d": smallField3D(),
	}
	for name, f := range fields {
		for _, workers := range []int{1, 4} {
			orig := f.Clone()
			dec, err := c.Decompose(f, options(), workers, nil)
			if err != nil {
				t.Fatalf("%s: Decompose(workers=%d): %v", name, workers, err)
			}
			for i, v := range f.Data() {
				if math.Float64bits(v) != math.Float64bits(orig.Data()[i]) {
					t.Fatalf("%s: Decompose(workers=%d) modified its field at node %d", name, workers, i)
				}
			}
			owned, err := c.DecomposeInPlace(orig, options(), workers, nil)
			if err != nil {
				t.Fatalf("%s: DecomposeInPlace(workers=%d): %v", name, workers, err)
			}
			for l := 0; l < dec.Levels(); l++ {
				a, b := dec.Coeffs(l), owned.Coeffs(l)
				if len(a) != len(b) {
					t.Fatalf("%s: level %d: DecomposeInPlace has %d coefficients, Decompose %d", name, l, len(b), len(a))
				}
				for i := range a {
					if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
						t.Fatalf("%s: level %d coefficient %d: DecomposeInPlace %v, Decompose %v", name, l, i, b[i], a[i])
					}
				}
			}
			if got, want := dec.Levels(), options().Levels; got != want {
				t.Fatalf("%s: Levels() = %d, want %d", name, got, want)
			}
			var n int
			for l := 0; l < dec.Levels(); l++ {
				n += len(dec.Coeffs(l))
			}
			if n != len(f.Data()) {
				t.Fatalf("%s: coefficient count %d != field size %d", name, n, len(f.Data()))
			}
			rec := dec.Recompose()
			maxAbs := 0.0
			for _, v := range f.Data() {
				if a := math.Abs(v); a > maxAbs {
					maxAbs = a
				}
			}
			if got, lim := grid.MaxAbsDiff(f, rec), 1e-12*maxAbs; got > lim {
				t.Fatalf("%s: Decompose→Recompose (workers=%d) L∞ residual %g exceeds rounding budget %g",
					name, workers, got, lim)
			}
		}
	}
}

// testStoreRoundtrip pushes a field through the full pipeline — compress,
// serialize to the segment-store file format, reopen, retrieve — and checks
// the backend identity survives the header while the full-plane
// reconstruction lands within the residual quantization error.
func testStoreRoundtrip(t *testing.T, c codec.ProgressiveCodec) {
	field := smoothField(33)
	comp, err := core.Compress(field, config(c), "conformance", 3)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	if got := comp.Header.Codec(); got != c.ID() {
		t.Fatalf("Header.Codec() = %q, want %q", got, c.ID())
	}
	path := filepath.Join(t.TempDir(), "conformance.pmg")
	if err := comp.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	h, st, err := core.OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer st.Close()
	if got := h.Codec(); got != c.ID() {
		t.Fatalf("reopened Header.Codec() = %q, want %q", got, c.ID())
	}
	full := make([]int, len(h.Levels))
	for l := range full {
		full[l] = h.Planes
	}
	rec, _, err := core.RetrievePlanes(context.Background(), h, st, full, core.RetrieveOptions{})
	if err != nil {
		t.Fatalf("RetrievePlanes: %v", err)
	}
	// With every plane fetched the only residual is the quantization floor:
	// the backend's amplification constant times the per-level residuals.
	var bound float64
	for _, lm := range h.Levels {
		bound += lm.ErrMatrix[h.Planes]
	}
	bound *= c.NaiveAmplification(h.CodecOptions(), len(h.Dims))
	if got := grid.MaxAbsDiff(field, rec); got > bound {
		t.Fatalf("full-plane store roundtrip error %g exceeds residual bound %g", got, bound)
	}
	// The in-memory and reopened artifacts must retrieve identically.
	memRec, _, err := core.RetrievePlanes(context.Background(), &comp.Header, comp, full, core.RetrieveOptions{})
	if err != nil {
		t.Fatalf("in-memory RetrievePlanes: %v", err)
	}
	if !bitsEqual(rec.Data(), memRec.Data()) {
		t.Fatal("store retrieval differs from in-memory retrieval")
	}
}

// testMonotoneErrorDecay decodes uniform plane prefixes b = 4, 8, ..., 32
// and checks the reconstruction error never increases with more planes and
// collapses by orders of magnitude across the sweep. Prefixes stride by 4
// because a single extra nega-binary digit may transiently overshoot; a
// 4-plane stride shrinks the truncation bound 16-fold, which every sane
// backend must convert into monotone progress.
func testMonotoneErrorDecay(t *testing.T, c codec.ProgressiveCodec) {
	field := smoothField(33)
	dec, err := c.Decompose(field, options(), 1, nil)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	// Pooled encodings stay alive (never Released) across all prefix decodes.
	encs := make([]*bitplane.LevelEncoding, dec.Levels())
	for l := range encs {
		e, err := c.EncodeLevel(dec.Coeffs(l), conformancePlanes, 1, nil)
		if err != nil {
			t.Fatalf("EncodeLevel(%d): %v", l, err)
		}
		encs[l] = e
		// Nega-binary prefixes may overshoot plane to plane, but a 4-plane
		// stride shrinks the truncation bound 16-fold, which must dominate
		// any overshoot.
		for b := 8; b <= conformancePlanes; b += 4 {
			if e.ErrMatrix[b] > e.ErrMatrix[b-4]*(1+1e-12) {
				t.Fatalf("level %d ErrMatrix increases over planes %d→%d: %g → %g",
					l, b-4, b, e.ErrMatrix[b-4], e.ErrMatrix[b])
			}
		}
	}
	var errs []float64
	for b := 4; b <= conformancePlanes; b += 4 {
		z, err := c.NewZero(field.Dims(), options(), 1)
		if err != nil {
			t.Fatalf("NewZero: %v", err)
		}
		for l := 0; l < z.Levels(); l++ {
			c.DecodeLevel(encs[l], b, z.Coeffs(l), 1, nil)
		}
		errs = append(errs, grid.MaxAbsDiff(field, z.Recompose()))
	}
	for i := 1; i < len(errs); i++ {
		if errs[i] > errs[i-1]+1e-15 {
			t.Fatalf("reconstruction error increased with more planes: b=%d err %g → b=%d err %g (sweep %v)",
				4*i, errs[i-1], 4*(i+1), errs[i], errs)
		}
	}
	first, last := errs[0], errs[len(errs)-1]
	if first == 0 {
		t.Fatal("4-plane reconstruction already exact; the decay sweep is vacuous")
	}
	if last > first*1e-6 {
		t.Fatalf("error decayed only %g → %g over %d planes; want ≥ 10^6 overall decay",
			first, last, conformancePlanes)
	}
}

// testWorkerByteIdentity compresses with 1/2/4/8 workers and checks headers
// and every segment are byte-identical, then retrieves with 1/2/4/8 workers
// and checks the reconstructions are bit-identical. Under -race this
// subtest doubles as the data-race probe for the backend's fan-out.
func testWorkerByteIdentity(t *testing.T, c codec.ProgressiveCodec) {
	field := roughField(33, 11)
	var refHeader []byte
	var ref *core.Compressed
	for _, workers := range []int{1, 2, 4, 8} {
		cfg := config(c)
		cfg.Parallelism = workers
		comp, err := core.Compress(field, cfg, "workers", 0)
		if err != nil {
			t.Fatalf("Compress(workers=%d): %v", workers, err)
		}
		hdr, err := json.Marshal(&comp.Header)
		if err != nil {
			t.Fatalf("marshal header: %v", err)
		}
		if ref == nil {
			ref, refHeader = comp, hdr
			continue
		}
		if !bytes.Equal(hdr, refHeader) {
			t.Fatalf("header bytes differ between workers=1 and workers=%d", workers)
		}
		for l := range ref.Header.Levels {
			for k := 0; k < ref.Header.Planes; k++ {
				a, err := ref.Segment(context.Background(), l, k)
				if err != nil {
					t.Fatalf("ref segment (%d,%d): %v", l, k, err)
				}
				b, err := comp.Segment(context.Background(), l, k)
				if err != nil {
					t.Fatalf("segment (%d,%d): %v", l, k, err)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("segment (%d,%d) differs between workers=1 and workers=%d", l, k, workers)
				}
			}
		}
	}
	h := &ref.Header
	plan, err := retrieval.PlanForPlanes(h.LevelInfos(), []int{12, 10, 8, 6, 4})
	if err != nil {
		t.Fatalf("PlanForPlanes: %v", err)
	}
	var refRec *grid.Tensor
	for _, workers := range []int{1, 2, 4, 8} {
		rec, err := core.Retrieve(context.Background(), h, ref, plan, core.RetrieveOptions{Workers: workers})
		if err != nil {
			t.Fatalf("Retrieve(workers=%d): %v", workers, err)
		}
		if refRec == nil {
			refRec = rec
			continue
		}
		if !bitsEqual(refRec.Data(), rec.Data()) {
			t.Fatalf("reconstruction differs between workers=1 and workers=%d", workers)
		}
	}
}

// testHardening feeds adversarial fields — NaN, ±Inf, denormal-only —
// through the full pipeline and requires the backend to stay deterministic
// and finite: no panics, compression succeeds, and the full-plane
// reconstruction contains no NaN or Inf (non-finite inputs cannot be
// represented by finite planes; the contract is containment, not recovery).
// Options the backend refuses must come back as an error with a nil
// Decomposition — not a typed nil pointer inside a non-nil interface, which
// a caller's nil check would let through.
func testHardening(t *testing.T, c codec.ProgressiveCodec) {
	refused := codec.Options{Levels: 0}
	if dec, err := c.Decompose(smoothField(9), refused, 1, nil); err == nil || dec != nil {
		t.Fatalf("Decompose(Levels: 0) = (%v, %v); want (nil, error)", dec, err)
	}
	if dec, err := c.NewZero([]int{9, 9}, refused, 1); err == nil || dec != nil {
		t.Fatalf("NewZero(Levels: 0) = (%v, %v); want (nil, error)", dec, err)
	}
	nan := smoothField(33)
	nan.Data()[5*33+7] = math.NaN()
	inf := smoothField(33)
	inf.Data()[3] = math.Inf(1)
	inf.Data()[17*33+2] = math.Inf(-1)
	denormal := grid.New(33, 33)
	for i := range denormal.Data() {
		denormal.Data()[i] = math.Ldexp(1, -1060) * float64(1+i%7)
	}
	for name, field := range map[string]*grid.Tensor{
		"nan":      nan,
		"inf":      inf,
		"denormal": denormal,
	} {
		comp, err := core.Compress(field, config(c), name, 0)
		if err != nil {
			t.Fatalf("%s: Compress: %v", name, err)
		}
		h := &comp.Header
		full := make([]int, len(h.Levels))
		for l := range full {
			full[l] = h.Planes
		}
		rec, _, err := core.RetrievePlanes(context.Background(), h, comp, full, core.RetrieveOptions{})
		if err != nil {
			t.Fatalf("%s: RetrievePlanes: %v", name, err)
		}
		for i, v := range rec.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: reconstruction[%d] = %g is not finite", name, i, v)
			}
		}
		if name == "denormal" {
			if got := grid.MaxAbsDiff(field, rec); got > 1e-300 {
				t.Fatalf("denormal field error %g; want below 1e-300", got)
			}
		}
	}
}

// lossySource drops every plane of one level at or beyond a cut index with
// a permanent-corruption error, the storage layer's "this plane is gone"
// signal.
type lossySource struct {
	src   storage.SegmentSource
	level int
	plane int
}

// Segment implements storage.SegmentSource.
func (s lossySource) Segment(ctx context.Context, level, plane int) ([]byte, error) {
	if level == s.level && plane >= s.plane {
		return nil, fmt.Errorf("codectest: injected plane loss at (%d,%d): %w",
			level, plane, storage.ErrCorrupt)
	}
	return s.src.Segment(ctx, level, plane)
}

// testDegradedPrefix permanently loses a plane mid-level and checks a
// session refinement degrades instead of failing: the reconstruction falls
// back to the deepest consistent prefix of the lossy level, the Degradation
// report names the first lost plane, and the re-derived error bound is
// still truthful for the degraded reconstruction.
func testDegradedPrefix(t *testing.T, c codec.ProgressiveCodec) {
	field := smoothField(33)
	comp, err := core.Compress(field, config(c), "degraded", 0)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	h := &comp.Header
	const lossLevel, lossPlane = 2, 3
	s, err := core.NewSession(h, lossySource{src: comp, level: lossLevel, plane: lossPlane})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	est := h.TheoryBound()
	tol := h.AbsTolerance(1e-9)
	rec, plan, deg, err := s.Refine(context.Background(), est, tol)
	if err != nil {
		t.Fatalf("Refine over lossy source: %v", err)
	}
	if deg == nil {
		t.Fatal("refinement over a lost plane reported no degradation")
	}
	found := false
	for _, id := range deg.Dropped {
		if id.Level == lossLevel && id.Plane == lossPlane {
			found = true
		}
	}
	if !found {
		t.Fatalf("Degradation.Dropped = %v does not name the lost plane (%d,%d)",
			deg.Dropped, lossLevel, lossPlane)
	}
	if got := deg.Got[lossLevel]; got != lossPlane {
		t.Fatalf("degraded level decoded %d planes, want the %d-plane prefix", got, lossPlane)
	}
	if deg.Requested[lossLevel] <= lossPlane {
		t.Fatalf("test plan requested only %d planes on the lossy level; the loss was never exercised",
			deg.Requested[lossLevel])
	}
	if got := grid.MaxAbsDiff(field, rec); got > deg.AchievedBound {
		t.Fatalf("degraded reconstruction error %g exceeds the reported achieved bound %g",
			got, deg.AchievedBound)
	}
	if deg.AchievedBound <= tol {
		t.Fatalf("achieved bound %g claims the lost plane did not matter (tol %g)", deg.AchievedBound, tol)
	}
	if plan.Planes[lossLevel] != lossPlane {
		t.Fatalf("executed plan records %d planes on the lossy level, want %d",
			plan.Planes[lossLevel], lossPlane)
	}
	// The session must remain usable: a later refinement over a healed
	// source resumes from the degraded prefix and reaches the tolerance.
	s2, err := core.NewSession(h, comp)
	if err != nil {
		t.Fatalf("NewSession(healed): %v", err)
	}
	recHealed, _, degHealed, err := s2.Refine(context.Background(), est, tol)
	if err != nil {
		t.Fatalf("Refine(healed): %v", err)
	}
	if degHealed != nil {
		t.Fatalf("healed refinement still degraded: %+v", degHealed)
	}
	if got := grid.MaxAbsDiff(field, recHealed); got > tol {
		t.Fatalf("healed refinement error %g exceeds tolerance %g", got, tol)
	}
}

// bitsEqual reports whether two float64 slices are identical bit for bit
// (NaNs equal themselves, +0 differs from -0 — the strictest equality).
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

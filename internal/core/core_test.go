package core

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmgard/internal/grid"
	"pmgard/internal/lossless"
	"pmgard/internal/obs"
	"pmgard/internal/sim/warpx"
)

// testField builds a realistic WarpX-like field for pipeline tests.
func testField(t *testing.T) *grid.Tensor {
	t.Helper()
	cfg := warpx.DefaultConfig(17, 9, 9)
	f, err := cfg.Field("Ex", 32)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCompressRetrieveWithinTolerance(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 32)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	est := h.TheoryEstimator()
	for _, rel := range []float64{1e-1, 1e-2, 1e-4, 1e-6} {
		tol := h.AbsTolerance(rel)
		rec, plan, err := RetrieveTolerance(context.Background(), h, c, est, tol, RetrieveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		achieved := grid.MaxAbsDiff(f, rec)
		if achieved > tol {
			t.Fatalf("rel %g: achieved error %g exceeds tolerance %g (plan %v)",
				rel, achieved, tol, plan.Planes)
		}
	}
}

func TestTheoryControlIsPessimistic(t *testing.T) {
	// The paper's premise (Fig. 2): achieved error is far below requested.
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 32)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	logGapSum, n := 0.0, 0
	for _, rel := range []float64{1e-2, 1e-3, 1e-4, 1e-5, 1e-6} {
		tol := h.AbsTolerance(rel)
		rec, _, err := RetrieveTolerance(context.Background(), h, c, h.TheoryEstimator(), tol, RetrieveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		achieved := grid.MaxAbsDiff(f, rec)
		if achieved == 0 {
			continue
		}
		logGapSum += math.Log(tol / achieved)
		n++
	}
	if n == 0 {
		t.Fatal("no bounds produced a nonzero achieved error")
	}
	if gap := math.Exp(logGapSum / float64(n)); gap < 3 {
		t.Fatalf("geometric-mean requested/achieved gap %.2f, want ≥3 (Fig. 2 premise)", gap)
	}
}

func TestTighterToleranceCostsMoreBytes(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 32)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	est := h.TheoryEstimator()
	prev := int64(-1)
	for _, rel := range []float64{1e-1, 1e-3, 1e-5, 1e-7} {
		_, plan, err := RetrieveTolerance(context.Background(), h, c, est, h.AbsTolerance(rel), RetrieveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Bytes < prev {
			t.Fatalf("rel %g fetched %d bytes < previous %d", rel, plan.Bytes, prev)
		}
		prev = plan.Bytes
	}
	if prev > h.TotalBytes() {
		t.Fatalf("plan bytes %d exceed stored total %d", prev, h.TotalBytes())
	}
}

func TestFileRoundTrip(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 32)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ex.pmgd")
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	h, st, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if h.FieldName != "Ex" || h.Timestep != 32 {
		t.Fatalf("header = %q t=%d", h.FieldName, h.Timestep)
	}
	tol := h.AbsTolerance(1e-4)
	rec, plan, err := RetrieveTolerance(context.Background(), h, st, h.TheoryEstimator(), tol, RetrieveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if achieved := grid.MaxAbsDiff(f, rec); achieved > tol {
		t.Fatalf("achieved %g > tol %g after file round trip", achieved, tol)
	}
	// The store must have read exactly the planned bytes.
	if st.BytesRead() != plan.Bytes {
		t.Fatalf("store read %d bytes, plan says %d", st.BytesRead(), plan.Bytes)
	}
}

func TestRetrievePlanesDirect(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 32)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	planes := []int{10, 8, 6, 4, 2}
	rec, plan, err := RetrievePlanes(context.Background(), h, c, planes, RetrieveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for l, b := range plan.Planes {
		if b != planes[l] {
			t.Fatalf("plan.Planes[%d] = %d, want %d", l, b, planes[l])
		}
	}
	if rec.Len() != f.Len() {
		t.Fatal("reconstruction has wrong size")
	}
	// More planes must not increase the error.
	recMore, _, err := RetrievePlanes(context.Background(), h, c, []int{20, 16, 12, 10, 8}, RetrieveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if grid.MaxAbsDiff(f, recMore) > grid.MaxAbsDiff(f, rec)*1.5 {
		t.Fatal("more planes produced a substantially worse reconstruction")
	}
}

func TestRetrieveAllPlanesNearLossless(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 32)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	all := make([]int, len(h.Levels))
	for l := range all {
		all[l] = h.Planes
	}
	rec, _, err := RetrievePlanes(context.Background(), h, c, all, RetrieveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Residual bounded by the quantization floor amplified by Eq. 6.
	bound := 0.0
	for _, lm := range h.Levels {
		bound += lm.ErrMatrix[h.Planes]
	}
	bound *= h.TheoryEstimator().C
	if achieved := grid.MaxAbsDiff(f, rec); achieved > bound {
		t.Fatalf("full retrieval error %g exceeds quantization bound %g", achieved, bound)
	}
}

func TestZeroPlanesGiveZeroField(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 32)
	if err != nil {
		t.Fatal(err)
	}
	rec, plan, err := RetrievePlanes(context.Background(), &c.Header, c, make([]int, len(c.Header.Levels)), RetrieveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bytes != 0 {
		t.Fatalf("zero planes cost %d bytes", plan.Bytes)
	}
	if rec.LinfNorm() != 0 {
		t.Fatal("zero planes did not reconstruct the zero field")
	}
}

func TestCodecsInteroperate(t *testing.T) {
	f := testField(t)
	for _, codec := range []lossless.Codec{lossless.Deflate(), lossless.Raw()} {
		cfg := DefaultConfig()
		cfg.Codec = codec
		c, err := Compress(f, cfg, "Ex", 0)
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		h := &c.Header
		tol := h.AbsTolerance(1e-3)
		rec, _, err := RetrieveTolerance(context.Background(), h, c, h.TheoryEstimator(), tol, RetrieveOptions{})
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		if achieved := grid.MaxAbsDiff(f, rec); achieved > tol {
			t.Fatalf("%s: achieved %g > tol %g", codec.Name(), achieved, tol)
		}
	}
}

// TestRemovedCodecInHeaderIsRefused: an artifact whose header names a
// lossless codec this build does not have (huffman and rle were removed
// after ablate-codec measured them larger than raw) is refused by name when
// its plane store is built — before any segment is read, and never by
// decoding its planes as some other codec.
func TestRemovedCodecInHeaderIsRefused(t *testing.T) {
	c, err := Compress(testField(t), DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"huffman", "rle"} {
		c.Header.CodecName = name
		path := filepath.Join(t.TempDir(), name+".pmgd")
		if err := c.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		h, st, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(st.Meta()), `"CodecName":"`+name+`"`) {
			t.Fatalf("header on disk does not name codec %q: %s", name, st.Meta())
		}
		if _, err := NewPlaneStore(h, st); err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Fatalf("NewPlaneStore over a %s artifact: err = %v, want one naming the codec", name, err)
		}
		_, _, err = RetrieveTolerance(context.Background(), h, st, h.TheoryEstimator(), h.AbsTolerance(1e-3), RetrieveOptions{})
		if err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Fatalf("retrieve from a %s artifact: err = %v, want one naming the codec", name, err)
		}
		st.Close()
	}
}

func TestDeflateBeatsRawOnStoredSize(t *testing.T) {
	// Needs a field large enough that plane payloads dwarf the per-segment
	// codec overhead.
	f, err := warpx.DefaultConfig(17, 17, 17).Field("Ex", 32)
	if err != nil {
		t.Fatal(err)
	}
	cfgD := DefaultConfig()
	cfgR := DefaultConfig()
	cfgR.Codec = lossless.Raw()
	cd, err := Compress(f, cfgD, "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Compress(f, cfgR, "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	if cd.Header.TotalBytes() >= cr.Header.TotalBytes() {
		t.Fatalf("deflate total %d not smaller than raw %d",
			cd.Header.TotalBytes(), cr.Header.TotalBytes())
	}
}

func TestHeaderConversions(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	if got := h.AbsTolerance(0.5); math.Abs(got-0.5*f.Range()) > 1e-12 {
		t.Fatalf("AbsTolerance = %g, want %g", got, 0.5*f.Range())
	}
	infos := h.LevelInfos()
	if len(infos) != 5 {
		t.Fatalf("LevelInfos count = %d", len(infos))
	}
	for l, li := range infos {
		if len(li.ErrMatrix) != h.Planes+1 || len(li.PlaneSizes) != h.Planes {
			t.Fatalf("level %d info malformed", l)
		}
	}
	if c := h.TheoryEstimator().C; c < 1 {
		t.Fatalf("theory constant %g < 1", c)
	}
}

func TestRetrieveValidation(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	if _, _, err := RetrievePlanes(context.Background(), h, c, []int{1}, RetrieveOptions{}); err == nil {
		t.Fatal("short plane slice accepted")
	}
	if _, _, err := RetrievePlanes(context.Background(), h, c, []int{99, 0, 0, 0, 0}, RetrieveOptions{}); err == nil {
		t.Fatal("out-of-range plane count accepted")
	}
	if _, err := c.Segment(context.Background(), 9, 0); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := c.Segment(context.Background(), 0, 99); err == nil {
		t.Fatal("bad plane accepted")
	}
}

func TestCompressConstantField(t *testing.T) {
	f := grid.New(9, 9, 9)
	f.Fill(5)
	c, err := Compress(f, DefaultConfig(), "const", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	// A constant field has zero range; retrieval at any positive absolute
	// tolerance must succeed.
	rec, plan, err := RetrieveTolerance(context.Background(), h, c, h.TheoryEstimator(), 1e-9, RetrieveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if achieved := grid.MaxAbsDiff(f, rec); achieved > 1e-9 {
		t.Fatalf("constant field achieved error %g", achieved)
	}
	// Detail levels of a constant field are all zero, so nearly nothing
	// should be fetched beyond the coarse level.
	if plan.Bytes > h.TotalBytes()/2 {
		t.Fatalf("constant field fetched %d of %d bytes", plan.Bytes, h.TotalBytes())
	}
}

func TestCompressRetrieve1D2D(t *testing.T) {
	// The pipeline must handle low-rank fields, not just 3-D volumes.
	cases := []*grid.Tensor{grid.New(257), grid.New(33, 33)}
	for _, f := range cases {
		for i := range f.Data() {
			f.Data()[i] = math.Sin(float64(i)/7) * 100
		}
		c, err := Compress(f, DefaultConfig(), "lowrank", 0)
		if err != nil {
			t.Fatalf("rank %d: %v", f.NDim(), err)
		}
		h := &c.Header
		tol := h.AbsTolerance(1e-5)
		rec, _, err := RetrieveTolerance(context.Background(), h, c, h.TheoryEstimator(), tol, RetrieveOptions{})
		if err != nil {
			t.Fatalf("rank %d: %v", f.NDim(), err)
		}
		if achieved := grid.MaxAbsDiff(f, rec); achieved > tol {
			t.Fatalf("rank %d: achieved %g > tol %g", f.NDim(), achieved, tol)
		}
	}
}

func TestHeaderJSONRoundTrip(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 3)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(&c.Header)
	if err != nil {
		t.Fatal(err)
	}
	var h2 Header
	if err := json.Unmarshal(blob, &h2); err != nil {
		t.Fatal(err)
	}
	if h2.FieldName != "Ex" || h2.Timestep != 3 || len(h2.Levels) != 5 {
		t.Fatalf("header lost fields: %+v", h2)
	}
	if len(h2.LevelPools) != 5 || len(h2.LevelPools[0]) != 64 {
		t.Fatalf("level pools lost: %d×%d", len(h2.LevelPools), len(h2.LevelPools[0]))
	}
	// The all-zero-level sentinel exponent must survive JSON.
	zero := grid.New(9, 9)
	cz, err := Compress(zero, DefaultConfig(), "zero", 0)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ = json.Marshal(&cz.Header)
	var hz Header
	if err := json.Unmarshal(blob, &hz); err != nil {
		t.Fatal(err)
	}
	rec, _, err := RetrievePlanes(context.Background(), &hz, cz, []int{32, 32, 32, 32, 32}, RetrieveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.LinfNorm() != 0 {
		t.Fatal("zero field reconstruction not zero after JSON round trip")
	}
}

func TestStoreReadsOnlyPlannedSegments(t *testing.T) {
	// The retriever must never touch planes beyond the plan — this is the
	// entire point of progressive retrieval.
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.pmgd")
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	h, st, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	planes := []int{3, 2, 1, 0, 0}
	_, plan, err := RetrievePlanes(context.Background(), h, st, planes, RetrieveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests() != 6 {
		t.Fatalf("issued %d ranged reads, want exactly 6 (3+2+1)", st.Requests())
	}
	if st.BytesRead() != plan.Bytes {
		t.Fatalf("read %d bytes, plan says %d", st.BytesRead(), plan.Bytes)
	}
}

func TestRetrieveResolution(t *testing.T) {
	f, err := warpx.DefaultConfig(17, 17, 17).Field("Ex", 8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compress(f, DefaultConfig(), "Ex", 8)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	// Fetch levels 0..2 fully, nothing above.
	planes := []int{32, 32, 32, 0, 0}
	coarse, plan, err := RetrieveResolution(context.Background(), h, c, planes, 2, RetrieveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := coarse.Dims(); got[0] != 5 || got[1] != 5 || got[2] != 5 {
		t.Fatalf("coarse dims = %v, want 5³", got)
	}
	// The coarse view must track the downsampled original.
	down := f.Resample(5, 5, 5)
	if diff := grid.MaxAbsDiff(coarse, down); diff > f.Range() {
		t.Fatalf("coarse view deviates from downsample by %g (range %g)", diff, f.Range())
	}
	// The plan must cost only the fetched levels.
	var want int64
	for l := 0; l <= 2; l++ {
		for _, s := range h.Levels[l].PlaneSizes {
			want += s
		}
	}
	if plan.Bytes != want {
		t.Fatalf("plan bytes %d, want %d (levels 0-2 only)", plan.Bytes, want)
	}
	// Validation: nonzero planes above the cut, bad upTo.
	if _, _, err := RetrieveResolution(context.Background(), h, c, []int{32, 32, 32, 1, 0}, 2, RetrieveOptions{}); err == nil {
		t.Fatal("planes above cut accepted")
	}
	if _, _, err := RetrieveResolution(context.Background(), h, c, planes, 9, RetrieveOptions{}); err == nil {
		t.Fatal("bad upTo accepted")
	}
	// The caller's cancellation and telemetry sink are honoured.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := RetrieveResolution(cancelled, h, c, planes, 2, RetrieveOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v, want Canceled", err)
	}
	o := obs.New()
	if _, _, err := RetrieveResolution(context.Background(), h, c, planes, 2, RetrieveOptions{Obs: o}); err != nil {
		t.Fatal(err)
	}
	if got := o.Metrics.Snapshot().Counters["core.session.planes_fetched"]; got != 96 {
		t.Fatalf("core.session.planes_fetched = %d, want 96 (3 levels × 32 planes)", got)
	}
}

func TestRetrieveDetectsCorruptSegments(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.pmgd")
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	// Flip bytes in the payload region (after the header/table).
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(blob) - 500; i < len(blob)-400; i++ {
		blob[i] ^= 0xFF
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	h, st, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	all := make([]int, len(h.Levels))
	for l := range all {
		all[l] = h.Planes
	}
	// The deflate stage must notice the corruption (invalid stream or
	// wrong decoded length) rather than silently reconstructing garbage.
	if _, _, err := RetrievePlanes(context.Background(), h, st, all, RetrieveOptions{}); err == nil {
		t.Fatal("corrupted payload retrieved without error")
	}
}

func TestPropertyToleranceAlwaysRespected(t *testing.T) {
	// The central invariant of the whole pipeline: for any field shape and
	// any attainable tolerance, theory-controlled retrieval achieves an
	// error within the requested bound.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		rank := 1 + rng.Intn(3)
		dims := make([]int, rank)
		for i := range dims {
			dims[i] = 5 + rng.Intn(12)
		}
		f := grid.New(dims...)
		kind := rng.Intn(3)
		for i := range f.Data() {
			switch kind {
			case 0: // smooth
				f.Data()[i] = math.Sin(float64(i) / 17)
			case 1: // noisy
				f.Data()[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)-4))
			default: // mixed, offset
				f.Data()[i] = 100 + math.Sin(float64(i)/9) + 0.01*rng.NormFloat64()
			}
		}
		c, err := Compress(f, DefaultConfig(), "prop", trial)
		if err != nil {
			t.Fatal(err)
		}
		h := &c.Header
		rel := math.Pow(10, -1-6*rng.Float64()) // 1e-1 .. 1e-7
		tol := h.AbsTolerance(rel)
		if tol <= 0 {
			continue
		}
		rec, plan, err := RetrieveTolerance(context.Background(), h, c, h.TheoryEstimator(), tol, RetrieveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		achieved := grid.MaxAbsDiff(f, rec)
		exhausted := true
		for l, b := range plan.Planes {
			if b < len(h.Levels[l].PlaneSizes) {
				exhausted = false
			}
		}
		if achieved > tol && !exhausted {
			t.Fatalf("trial %d (dims %v kind %d rel %.2e): achieved %g > tol %g with planes left",
				trial, dims, kind, rel, achieved, tol)
		}
	}
}

func TestTightEstimatorSharperThanTheory(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	naive := h.TheoryEstimator()
	tight := h.TightEstimator()
	if tight.C >= naive.C {
		t.Fatalf("tight constant %g not below naive %g", tight.C, naive.C)
	}
	// Both are true bounds: retrieval under either stays within tolerance.
	tol := h.AbsTolerance(1e-4)
	recT, planT, err := RetrieveTolerance(context.Background(), h, c, tight, tol, RetrieveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if achieved := grid.MaxAbsDiff(f, recT); achieved > tol {
		t.Fatalf("tight bound violated tolerance: %g > %g", achieved, tol)
	}
	_, planN, err := RetrieveTolerance(context.Background(), h, c, naive, tol, RetrieveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if planT.Bytes > planN.Bytes {
		t.Fatalf("tight bound fetched more (%d) than naive (%d)", planT.Bytes, planN.Bytes)
	}
}

func TestRetrieveHybridRepairsBadSeed(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	tol := h.AbsTolerance(1e-5)
	// A hopeless seed (nothing fetched): the hybrid must extend it until
	// the estimator is satisfied.
	seed := make([]int, len(h.Levels))
	rec, plan, err := RetrieveHybrid(context.Background(), h, c, seed, h.TightEstimator(), tol, RetrieveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bytes == 0 {
		t.Fatal("hybrid accepted an empty plan for a tight tolerance")
	}
	if achieved := grid.MaxAbsDiff(f, rec); achieved > tol {
		t.Fatalf("hybrid violated tolerance: %g > %g", achieved, tol)
	}
	// Validation propagates.
	if _, _, err := RetrieveHybrid(context.Background(), h, c, []int{1}, h.TightEstimator(), tol, RetrieveOptions{}); err == nil {
		t.Fatal("short seed accepted")
	}
	// The caller's cancellation and telemetry sink are honoured.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := RetrieveHybrid(cancelled, h, c, seed, h.TightEstimator(), tol, RetrieveOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v, want Canceled", err)
	}
	o := obs.New()
	if _, _, err := RetrieveHybrid(context.Background(), h, c, seed, h.TightEstimator(), tol, RetrieveOptions{Obs: o}); err != nil {
		t.Fatal(err)
	}
	var fetched int64
	for _, b := range plan.Planes {
		fetched += int64(b)
	}
	if got := o.Metrics.Snapshot().Counters["core.session.planes_fetched"]; got != fetched {
		t.Fatalf("core.session.planes_fetched = %d, want the plan's %d", got, fetched)
	}
}

func TestOpenFileRejectsNonStore(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.pmgd")
	os.WriteFile(bad, []byte("not a store"), 0o644)
	if _, _, err := OpenFile(bad); err == nil {
		t.Fatal("garbage file accepted")
	}
	if _, _, err := OpenFile(filepath.Join(dir, "missing.pmgd")); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, _, err := OpenFile(dir); err == nil || !strings.Contains(err.Error(), "manifest.json") {
		t.Fatalf("directory without a manifest: err = %v, want one naming manifest.json", err)
	}
	if err := (&Compressed{}).WriteFile(filepath.Join(dir, "no", "such", "dir", "x.pmgd")); err == nil {
		t.Fatal("unwritable path accepted")
	}
}

func TestCompressAllMatchesSequential(t *testing.T) {
	cfg := warpx.DefaultConfig(9, 9, 9)
	fields := make(map[string]*grid.Tensor)
	for _, name := range []string{"Jx", "Bx", "Ex"} {
		f, err := cfg.Field(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		fields[name] = f
	}
	batch, err := CompressAll(fields, DefaultConfig(), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Fatalf("compressed %d fields, want 3", len(batch))
	}
	for name, f := range fields {
		seq, err := Compress(f, DefaultConfig(), name, 4)
		if err != nil {
			t.Fatal(err)
		}
		if batch[name].Header.TotalBytes() != seq.Header.TotalBytes() {
			t.Fatalf("%s: concurrent result differs from sequential", name)
		}
		if batch[name].Header.FieldName != name {
			t.Fatalf("%s: header name %q", name, batch[name].Header.FieldName)
		}
	}
	// Default worker count path.
	if _, err := CompressAll(fields, DefaultConfig(), 4, 0); err != nil {
		t.Fatal(err)
	}
}

func TestCompressAllPropagatesErrors(t *testing.T) {
	bad := DefaultConfig()
	bad.Decompose.Levels = -1
	fields := map[string]*grid.Tensor{"x": grid.New(4, 4)}
	if _, err := CompressAll(fields, bad, 0, 2); err == nil {
		t.Fatal("invalid config accepted")
	}
	// With several failing fields the reported one is the alphabetically
	// first, whatever the map order and the scheduler do.
	fields = map[string]*grid.Tensor{"b": grid.New(4, 4), "a": grid.New(4, 4), "c": grid.New(4, 4)}
	for i := 0; i < 20; i++ {
		_, err := CompressAll(fields, bad, 0, 3)
		if err == nil || !strings.Contains(err.Error(), "compress a:") {
			t.Fatalf("run %d: err = %v, want field a's error", i, err)
		}
	}
}

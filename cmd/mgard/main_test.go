package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pmgard/internal/fieldio"
	"pmgard/internal/obs"
	"pmgard/internal/sim/warpx"
)

// writeTestField produces a small field file for the CLI tests.
func writeTestField(t *testing.T, dir string) string {
	t.Helper()
	f, err := warpx.DefaultConfig(9, 9, 9).Field("Jx", 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "jx.field")
	if err := fieldio.Write(path, fieldio.Meta{Field: "Jx", Timestep: 3}, f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompressInspectRetrieveFlow(t *testing.T) {
	dir := t.TempDir()
	field := writeTestField(t, dir)
	pmgd := filepath.Join(dir, "jx.pmgd")

	if err := cmdCompress([]string{"-in", field, "-out", pmgd}); err != nil {
		t.Fatal(err)
	}
	if err := cmdInspect([]string{"-in", pmgd}); err != nil {
		t.Fatal(err)
	}
	recon := filepath.Join(dir, "recon.field")
	if err := cmdRetrieve([]string{
		"-in", pmgd, "-rel", "1e-3", "-orig", field, "-out", recon,
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fieldio.Read(recon); err != nil {
		t.Fatalf("reconstruction unreadable: %v", err)
	}
}

// captureStdout runs cmd and returns what it printed.
func captureStdout(t *testing.T, cmd func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	err = cmd()
	os.Stdout = stdout
	w.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(<-out)
}

// TestTieredFlow: -in takes either layout. The same field compressed to a
// file and to a tiered directory retrieves the same plan through one byte
// report — which adds per-tier lines when the store has tiers — and
// inspects with each level's tier.
func TestTieredFlow(t *testing.T) {
	dir := t.TempDir()
	field := writeTestField(t, dir)
	store, pmgd := filepath.Join(dir, "tiered"), filepath.Join(dir, "jx.pmgd")
	if err := cmdCompress([]string{"-in", field, "-tiered", store}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCompress([]string{"-in", field, "-out", pmgd}); err != nil {
		t.Fatal(err)
	}
	tiered := captureStdout(t, func() error { return cmdRetrieve([]string{"-in", store, "-rel", "1e-3"}) })
	flat := captureStdout(t, func() error { return cmdRetrieve([]string{"-in", pmgd, "-rel", "1e-3"}) })
	report := regexp.MustCompile(`(?m)^retrieved \d+ of \d+ stored bytes \(.*\) in \d+ ranged reads$`)
	if got := report.FindAllString(tiered, -1); len(got) != 1 || got[0] != report.FindString(flat) {
		t.Fatalf("byte reports differ or repeat: tiered %q, flat %q", got, report.FindString(flat))
	}
	if !strings.Contains(tiered, "\ntier nvme ") || strings.Contains(flat, "\ntier ") {
		t.Fatalf("per-tier lines belong to the store with tiers only:\ntiered:\n%s\nflat:\n%s", tiered, flat)
	}

	inspect := captureStdout(t, func() error { return cmdInspect([]string{"-in", store}) })
	if !strings.Contains(inspect, "tier nvme\n") || !strings.Contains(inspect, "tier tape\n") {
		t.Fatalf("inspect of a tiered directory does not name each level's tier:\n%s", inspect)
	}
	if out := captureStdout(t, func() error { return cmdInspect([]string{"-in", pmgd}) }); strings.Contains(out, "tier") {
		t.Fatalf("inspect of a .pmgd file names tiers:\n%s", out)
	}

	// A directory that is not a tiered store (a -tiles artifact, say) fails
	// naming the file -in looked for.
	tiles := filepath.Join(dir, "tiles")
	if err := cmdCompress([]string{"-in", field, "-tiles", tiles}); err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{
		cmdInspect([]string{"-in", tiles}),
		cmdRetrieve([]string{"-in", tiles, "-rel", "1e-3"}),
	} {
		if err == nil || !strings.Contains(err.Error(), "manifest.json") {
			t.Fatalf("-in on a tiled artifact: err = %v, want one naming manifest.json", err)
		}
	}

	// -tiles validates the manifest it reads: a tile file that points out
	// of the directory is refused by name, not opened.
	manifest := filepath.Join(tiles, "tiles.json")
	blob, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	escaped := regexp.MustCompile(`"file": "[^"]*"`).ReplaceAll(blob, []byte(`"file": "../jx.pmgd"`))
	if err := os.WriteFile(manifest, escaped, 0o644); err != nil {
		t.Fatal(err)
	}
	err = cmdRetrieve([]string{"-tiles", tiles, "-rel", "1e-3", "-out", filepath.Join(dir, "tiles.out")})
	if err == nil || !strings.Contains(err.Error(), `file "../jx.pmgd"`) {
		t.Fatalf("retrieve -tiles over an escaping manifest: err = %v, want one naming the rejected file field", err)
	}
}

// TestRetrieveDefaultsToExactBound: retrieve plans under the header's
// exact per-level bound unless -control theory asks for Eq. 6, which reads
// more bytes for the same tolerance; inspect prints both constants.
func TestRetrieveDefaultsToExactBound(t *testing.T) {
	dir := t.TempDir()
	field := writeTestField(t, dir)
	pmgd := filepath.Join(dir, "jx.pmgd")
	if err := cmdCompress([]string{"-in", field, "-out", pmgd}); err != nil {
		t.Fatal(err)
	}
	retrieved := regexp.MustCompile(`(?m)^retrieved (\d+) of`)
	read := func(args ...string) int {
		out := captureStdout(t, func() error { return cmdRetrieve(append([]string{"-in", pmgd, "-rel", "1e-4"}, args...)) })
		m := retrieved.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("retrieve %v printed no byte count:\n%s", args, out)
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	def, exact, theory := read(), read("-control", "exact"), read("-control", "theory")
	if def != exact || def >= theory {
		t.Fatalf("retrieve read %d bytes by default, %d under -control exact, %d under -control theory", def, exact, theory)
	}
	inspect := captureStdout(t, func() error { return cmdInspect([]string{"-in", pmgd}) })
	if !strings.Contains(inspect, "theory constant C = 129.7; exact per-level C_l = [1 ") {
		t.Fatalf("inspect does not print the exact constants beside theory's:\n%s", inspect)
	}
}

func TestRetrieveWithExplicitPlanes(t *testing.T) {
	dir := t.TempDir()
	field := writeTestField(t, dir)
	pmgd := filepath.Join(dir, "jx.pmgd")
	if err := cmdCompress([]string{"-in", field, "-out", pmgd}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRetrieve([]string{
		"-in", pmgd, "-control", "planes", "-planes", "8,8,8,8,8",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCLIValidation(t *testing.T) {
	if err := cmdCompress([]string{}); err == nil {
		t.Error("compress without args accepted")
	}
	if err := cmdInspect([]string{}); err == nil {
		t.Error("inspect without args accepted")
	}
	if err := cmdRetrieve([]string{}); err == nil {
		t.Error("retrieve without args accepted")
	}
	dir := t.TempDir()
	field := writeTestField(t, dir)
	pmgd := filepath.Join(dir, "jx.pmgd")
	if err := cmdCompress([]string{"-in", field, "-out", pmgd}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRetrieve([]string{"-in", pmgd}); err == nil {
		t.Error("retrieve without tolerance accepted")
	}
	if err := cmdRetrieve([]string{"-in", pmgd, "-rel", "1e-3", "-control", "bogus"}); err == nil {
		t.Error("unknown control accepted")
	}
	if err := cmdRetrieve([]string{"-in", pmgd, "-rel", "1e-3", "-control", "emgard"}); err == nil {
		t.Error("emgard control without model accepted")
	}
	if err := cmdRetrieve([]string{"-in", pmgd, "-control", "planes", "-planes", "a,b"}); err == nil {
		t.Error("malformed plane list accepted")
	}
}

// TestWorkersFlagBitIdentical compresses the same field at several -workers
// settings and asserts the produced files are byte-for-byte identical, then
// retrieves at the same settings through the same flags.
func TestWorkersFlagBitIdentical(t *testing.T) {
	dir := t.TempDir()
	field := writeTestField(t, dir)
	var ref []byte
	for _, w := range []string{"1", "2", "8"} {
		pmgd := filepath.Join(dir, "jx-w"+w+".pmgd")
		if err := cmdCompress([]string{"-in", field, "-out", pmgd, "-workers", w}); err != nil {
			t.Fatalf("workers=%s: %v", w, err)
		}
		data, err := os.ReadFile(pmgd)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = data
		} else if !bytes.Equal(data, ref) {
			t.Fatalf("workers=%s: compressed file differs from workers=1", w)
		}
		if err := cmdRetrieve([]string{"-in", pmgd, "-rel", "1e-3", "-workers", w}); err != nil {
			t.Fatalf("retrieve workers=%s: %v", w, err)
		}
	}
}

func TestRetrieveWithFaultInjection(t *testing.T) {
	dir := t.TempDir()
	field := writeTestField(t, dir)
	pmgd := filepath.Join(dir, "jx.pmgd")
	if err := cmdCompress([]string{"-in", field, "-out", pmgd}); err != nil {
		t.Fatal(err)
	}
	// A 20% transient rate with the retry layer must still retrieve and
	// verify against the original.
	recon := filepath.Join(dir, "recon.field")
	if err := cmdRetrieve([]string{
		"-in", pmgd, "-rel", "1e-3", "-orig", field, "-out", recon,
		"-fault-rate", "0.2", "-fault-seed", "7",
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fieldio.Read(recon); err != nil {
		t.Fatalf("reconstruction unreadable: %v", err)
	}
	// The retry layer alone (no injection) is also valid.
	if err := cmdRetrieve([]string{"-in", pmgd, "-rel", "1e-3", "-retries", "3"}); err != nil {
		t.Fatal(err)
	}
	// Out-of-range rates are rejected.
	if err := cmdRetrieve([]string{"-in", pmgd, "-rel", "1e-3", "-fault-rate", "1.5"}); err == nil {
		t.Error("fault rate above 1 accepted")
	}
	if err := cmdRetrieve([]string{"-in", pmgd, "-rel", "1e-3", "-fault-rate", "-0.1"}); err == nil {
		t.Error("negative fault rate accepted")
	}
}

// TestObservabilityFlags is the end-to-end check of the acceptance
// criterion: a fault-injected retrieve with -metrics-out emits a snapshot
// carrying per-level fetch counters, retry counts, and pool wait-time
// histograms, and -trace-out emits a span timeline covering every
// pipeline stage.
func TestObservabilityFlags(t *testing.T) {
	dir := t.TempDir()
	field := writeTestField(t, dir)
	pmgd := filepath.Join(dir, "jx.pmgd")
	cm := filepath.Join(dir, "cm.json")
	ct := filepath.Join(dir, "ct.json")
	if err := cmdCompress([]string{"-in", field, "-out", pmgd,
		"-metrics-out", cm, "-trace-out", ct}); err != nil {
		t.Fatal(err)
	}
	requireMetrics(t, cm,
		"decompose.transforms", "bitplane.levels_encoded",
		"lossless.segments_compressed", "lossless.segments_stored", "core.compress.fields",
		"pool.bitplane.encode.wait_seconds")
	requireStages(t, ct, "compress", "decompose", "bitplane.encode", "lossless.compress")

	rm := filepath.Join(dir, "rm.json")
	rt := filepath.Join(dir, "rt.json")
	// -workers 2: the pool.fetch.* task metrics belong to the plane fan-out,
	// which a single-CPU default would not start.
	if err := cmdRetrieve([]string{"-in", pmgd, "-rel", "1e-3", "-workers", "2",
		"-fault-rate", "0.2", "-fault-seed", "7",
		"-metrics-out", rm, "-trace-out", rt}); err != nil {
		t.Fatal(err)
	}
	requireMetrics(t, rm,
		"core.session.bytes_fetched", "core.session.planes_fetched",
		"core.session.level0.bytes_fetched", "core.session.level0.planes_fetched",
		"storage.retry.reads", "storage.retry.retries",
		"faults.reads", "faults.injected.transient",
		"pool.fetch.wait_seconds", "pool.fetch.task_seconds",
		"retrieval.plan_probes")
	requireStages(t, rt, "session.refine_to", "retrieval.plan", "session.fetch_level",
		"session.fetch_plane", "storage.read", "session.decode", "bitplane.decode",
		"session.recompose")
}

// requireMetrics asserts the snapshot file contains every named metric.
func requireMetrics(t *testing.T, path string, names ...string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for _, name := range names {
		if !snap.Has(name) {
			t.Errorf("%s missing metric %q", path, name)
		}
	}
}

// requireStages asserts the trace dump contains a span for every stage.
func requireStages(t *testing.T, path string, names ...string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump obs.TraceDump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	have := make(map[string]bool)
	for _, s := range dump.Spans {
		have[s.Name] = true
	}
	for _, name := range names {
		if !have[name] {
			t.Errorf("%s missing stage %q", path, name)
		}
	}
}

// TestTiledFlow drives the out-of-core path end to end: compress with a
// memory budget into a tiled artifact, retrieve it back streaming, and
// check the reconstruction against the original within the bound.
func TestTiledFlow(t *testing.T) {
	dir := t.TempDir()
	f, err := warpx.DefaultConfig(24, 12, 12).Field("Jx", 3)
	if err != nil {
		t.Fatal(err)
	}
	field := filepath.Join(dir, "jx.field")
	if err := fieldio.Write(field, fieldio.Meta{Field: "Jx", Timestep: 3}, f); err != nil {
		t.Fatal(err)
	}
	tiles := filepath.Join(dir, "tiles")
	if err := cmdCompress([]string{"-in", field, "-tiles", tiles,
		"-mem-budget", "64K", "-levels", "3"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(tiles, "tiles.json")); err != nil {
		t.Fatalf("manifest missing: %v", err)
	}
	recon := filepath.Join(dir, "recon.field")
	if err := cmdRetrieve([]string{"-tiles", tiles, "-rel", "1e-3",
		"-out", recon, "-orig", field}); err != nil {
		t.Fatal(err)
	}
	_, rec, err := fieldio.Read(recon)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != f.Len() {
		t.Fatalf("reconstruction has %d cells, want %d", rec.Len(), f.Len())
	}
	// Validation: -tiles without -out or -rel is refused.
	if err := cmdRetrieve([]string{"-tiles", tiles, "-rel", "1e-3"}); err == nil {
		t.Error("tiled retrieve without -out accepted")
	}
	if err := cmdRetrieve([]string{"-tiles", tiles, "-out", recon}); err == nil {
		t.Error("tiled retrieve without -rel accepted")
	}
	// Bad -mem-budget strings are rejected.
	if err := cmdCompress([]string{"-in", field, "-tiles", tiles, "-mem-budget", "64Q"}); err == nil {
		t.Error("bad mem-budget accepted")
	}
}

// TestParseBytes pins -mem-budget's sizes: suffixes scale by powers of 1024,
// and a size whose scaled value passes int64 is refused rather than wrapped
// — 2^34 + 1 GiB once parsed to exactly 1 GiB, and 9000000000G to a
// negative budget that tiling read as "one tile".
func TestParseBytes(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"", 0, true},
		{"67108864", 67108864, true},
		{" 64M ", 64 << 20, true},
		{"1g", 1 << 30, true},
		{"3k", 3 << 10, true},
		{"8589934591G", 8589934591 << 30, true}, // 2^63 − 2^30, the largest G
		{"9223372036854775807", 1<<63 - 1, true},
		{"8589934592G", 0, false}, // exactly 2^63
		{"17179869185G", 0, false},
		{"9000000000G", 0, false},
		{"9007199254740992M", 0, false},
		{"9007199254740992K", 0, false},
		{"-1M", 0, false},
		{"1.5G", 0, false},
		{"G", 0, false},
	} {
		got, err := parseBytes(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("parseBytes(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("parseBytes(%q) = %d, want an error", c.in, got)
		}
	}
}

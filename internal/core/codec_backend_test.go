package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"pmgard/internal/codec"
	"pmgard/internal/grid"
	"pmgard/internal/retrieval"
	"pmgard/internal/servecache"
)

// TestBackendConfigSelectsCodec pins backend selection end to end: the
// config's Backend lands in the header, survives serialization, and the
// default keeps an untagged header.
func TestBackendConfigSelectsCodec(t *testing.T) {
	f := testField(t)
	cfg := DefaultConfig()
	cfg.Backend = "interp"
	c, err := Compress(f, cfg, "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Header.CodecID != "interp" || c.Header.Codec() != "interp" {
		t.Fatalf("interp artifact header codec = (%q, %q)", c.Header.CodecID, c.Header.Codec())
	}
	raw, err := json.Marshal(&c.Header)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"CodecID":"interp"`)) {
		t.Fatalf("interp header JSON does not carry the codec tag: %s", raw[:80])
	}

	cDefault, err := Compress(f, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	if cDefault.Header.CodecID != "" || cDefault.Header.Codec() != codec.DefaultID {
		t.Fatalf("default artifact header codec = (%q, %q)", cDefault.Header.CodecID, cDefault.Header.Codec())
	}
	rawDefault, err := json.Marshal(&cDefault.Header)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(rawDefault, []byte("CodecID")) {
		t.Fatal("default header JSON mentions CodecID; mgard artifacts must stay byte-identical to pre-interface output")
	}
}

// TestUnknownBackendFails checks both ends reject unregistered codecs with
// an error that names the offender.
func TestUnknownBackendFails(t *testing.T) {
	f := testField(t)
	cfg := DefaultConfig()
	cfg.Backend = "bogus"
	if _, err := Compress(f, cfg, "Ex", 0); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("Compress with unknown backend: %v", err)
	}
	c, err := Compress(f, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := c.Header
	h.CodecID = "bogus"
	plan, err := retrieval.PlanForPlanes(h.LevelInfos(), []int{4, 4, 4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Retrieve(context.Background(), &h, c, plan, RetrieveOptions{}); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("Retrieve with unknown backend: %v", err)
	}
	if _, err := NewSession(&h, c); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("NewSession with unknown backend: %v", err)
	}
}

// TestSharedCacheKeysAreCodecNamespaced is the collision regression test:
// two sessions over the *same field name and timestep* but different
// backends share one cache, and each must still reconstruct its own field
// correctly. Without the codec component in servecache.Key, the second
// session would decode the first backend's cached planes.
func TestSharedCacheKeysAreCodecNamespaced(t *testing.T) {
	f := testField(t)
	cfgM := DefaultConfig()
	cfgI := DefaultConfig()
	cfgI.Backend = "interp"
	// Same field name + timestep → identical cache namespace for both.
	cm, err := Compress(f, cfgM, "Ex", 7)
	if err != nil {
		t.Fatal(err)
	}
	ci, err := Compress(f, cfgI, "Ex", 7)
	if err != nil {
		t.Fatal(err)
	}
	cache := servecache.New(0, nil)
	sm, err := openShared(&cm.Header, cm, cache)
	if err != nil {
		t.Fatal(err)
	}
	si, err := openShared(&ci.Header, ci, cache)
	if err != nil {
		t.Fatal(err)
	}
	tol := cm.Header.AbsTolerance(1e-5)
	recM, _, _, err := sm.Refine(context.Background(), cm.Header.TheoryBound(), tol)
	if err != nil {
		t.Fatal(err)
	}
	recI, _, _, err := si.Refine(context.Background(), ci.Header.TheoryBound(), tol)
	if err != nil {
		t.Fatal(err)
	}
	if got := grid.MaxAbsDiff(f, recM); got > tol {
		t.Fatalf("mgard session error %g exceeds %g under a shared cache", got, tol)
	}
	if got := grid.MaxAbsDiff(f, recI); got > tol {
		t.Fatalf("interp session error %g exceeds %g under a shared cache", got, tol)
	}
	// Direct key check: the cache holds both codecs' planes side by side.
	a := servecache.Key{Codec: "mgard", Field: "Ex@7", Level: 0, Plane: 0}
	b := servecache.Key{Codec: "interp", Field: "Ex@7", Level: 0, Plane: 0}
	if a == b {
		t.Fatal("keys differing only in Codec compare equal")
	}
}

package shard

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pmgard/internal/obs"
)

// hostileNode answers every GET /planes with whatever raw bytes the fuzzer
// last composed, written straight to the hijacked connection, so status,
// headers, framing and body need not agree with each other or with HTTP.
type hostileNode struct {
	mu       sync.Mutex
	response []byte
}

func (n *hostileNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	conn, _, err := w.(http.Hijacker).Hijack()
	if err != nil {
		return
	}
	defer conn.Close()
	n.mu.Lock()
	resp := n.response
	n.mu.Unlock()
	conn.Write(resp)
	// A node that says nothing about lengths ends its body by hanging up.
	if tcp, ok := conn.(*net.TCPConn); ok {
		tcp.CloseWrite()
	}
}

// boundedTransport checks, response by response, that the router reads no
// more of a body than it asked for: a 200 to a request for k planes may cost
// k × raw bytes, any other status its 4 KiB error document.
type boundedTransport struct {
	raw int
	mu  sync.Mutex
	// over describes the first response read past its bound.
	over string
}

func (b *boundedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	limit := 4096
	if resp.StatusCode == http.StatusOK {
		limit = (strings.Count(req.URL.Query().Get("plane"), ",") + 1) * b.raw
	}
	resp.Body = &boundedBody{ReadCloser: resp.Body, t: b, limit: limit, what: req.URL.RawQuery}
	return resp, nil
}

type boundedBody struct {
	io.ReadCloser
	t           *boundedTransport
	read, limit int
	what        string
}

func (b *boundedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.read += n; b.read > b.limit {
		b.t.mu.Lock()
		if b.t.over == "" {
			b.t.over = fmt.Sprintf("%d bytes read of the answer to %s, bound %d", b.read, b.what, b.limit)
		}
		b.t.mu.Unlock()
	}
	return n, err
}

// FuzzNodeRunResponse drives FieldClient.FetchPlanes against a node that
// lies about a run's response: a wrong or missing X-Shard-Planes, more
// planes than asked for, a body shorter or longer than the planes it claims,
// a missing or wrong Content-Length, a 200 carrying an error document, any
// status. Whatever the node says, the router must not panic, must not read
// more of a body than the run it asked for (k × RawPlaneSize; an error
// status may cost its 4 KiB error document), and must never hand back a
// bitset of the wrong length: every verdict is an error or exactly one
// plane.
func FuzzNodeRunResponse(f *testing.F) {
	c := buildArtifact(f)
	h := &c.Header
	raw := h.Levels[0].RawPlaneSize
	// asked, status, X-Shard-Planes ("" = absent), declared Content-Length
	// (< 0 = absent), body planes, body extra bytes, JSON error body.
	f.Add(uint8(4), uint16(200), "4", int64(4*raw), uint8(4), int16(0), false)    // honest
	f.Add(uint8(4), uint16(200), "2", int64(2*raw), uint8(2), int16(0), false)    // honest prefix
	f.Add(uint8(4), uint16(200), "3", int64(4*raw), uint8(4), int16(0), false)    // wrong X-Shard-Planes
	f.Add(uint8(4), uint16(200), "4", int64(4*raw), uint8(3), int16(5), false)    // body shorter than declared
	f.Add(uint8(4), uint16(200), "4", int64(4*raw), uint8(6), int16(0), false)    // body longer than declared
	f.Add(uint8(4), uint16(200), "4", int64(4*raw-1), uint8(4), int16(-1), false) // not a whole number of planes
	f.Add(uint8(2), uint16(200), "9", int64(9*raw), uint8(9), int16(0), false)    // k > n
	f.Add(uint8(3), uint16(200), "3", int64(-1), uint8(3), int16(0), false)       // missing Content-Length
	f.Add(uint8(3), uint16(200), "", int64(3*raw), uint8(3), int16(0), false)     // missing X-Shard-Planes
	f.Add(uint8(3), uint16(200), "-1", int64(0), uint8(0), int16(0), false)       // negative count
	f.Add(uint8(1), uint16(200), "1", int64(40), uint8(0), int16(40), true)       // 200 with an error document
	f.Add(uint8(5), uint16(410), "", int64(-1), uint8(0), int16(0), true)         // plain loss
	f.Add(uint8(5), uint16(502), "5", int64(5*raw), uint8(5), int16(0), false)    // planes under an error status
	f.Add(uint8(1), uint16(200), "1", int64(1)<<40, uint8(1), int16(0), false)    // absurd Content-Length

	node := &hostileNode{}
	ts := httptest.NewServer(node)
	f.Cleanup(ts.Close)
	m, err := ParseMap([]byte(fmt.Sprintf(`{"nodes": [{"name": "hostile", "url": %q}]}`, ts.URL)))
	if err != nil {
		f.Fatal(err)
	}
	bounded := &boundedTransport{raw: raw}
	client := &http.Client{Transport: bounded}

	f.Fuzz(func(t *testing.T, asked uint8, status uint16, shardPlanes string, declared int64, bodyPlanes uint8, bodyExtra int16, jsonBody bool) {
		n := int(asked)%h.Planes + 1
		if strings.ContainsAny(shardPlanes, "\r\n") || len(shardPlanes) > 64 {
			t.Skip("header injection is the HTTP parser's business")
		}
		bodyLen := int(bodyPlanes%16)*raw + int(bodyExtra)
		if bodyLen < 0 {
			bodyLen = 0
		}
		body := bytes.Repeat([]byte{0xA5}, bodyLen)
		if jsonBody {
			body = []byte(`{"error":"shard: hostile","status":410}`)
		}
		var resp bytes.Buffer
		code := int(status)
		if code < 200 || code > 599 {
			code = 200 + code%400
		}
		fmt.Fprintf(&resp, "HTTP/1.1 %d Whatever\r\nContent-Type: application/octet-stream\r\n", code)
		if shardPlanes != "" {
			fmt.Fprintf(&resp, "%s: %s\r\n", planesHeader, shardPlanes)
		}
		if declared >= 0 {
			fmt.Fprintf(&resp, "Content-Length: %d\r\n", declared)
		}
		resp.WriteString("Connection: close\r\n\r\n")
		resp.Write(body)
		node.mu.Lock()
		node.response = resp.Bytes()
		node.mu.Unlock()

		// A router of its own per input: no quarantine or breaker state
		// carries from one lie to the next.
		r, err := NewRouter(RouterConfig{Map: m, Client: client, Obs: obs.New()})
		if err != nil {
			t.Fatal(err)
		}
		planes := make([]int, n)
		for i := range planes {
			planes[i] = i
		}
		got := r.FieldClient(h).FetchPlanes(context.Background(), h.PlaneRun(0, planes))
		// servecache.Source: at least one verdict, and a short answer ends at
		// the run's first failure.
		if len(got) < 1 || len(got) > n || len(got) < n && got[len(got)-1].Err == nil {
			t.Fatalf("%d verdicts for a run of %d planes", len(got), n)
		}
		for i, p := range got[:len(got)-1] {
			if len(got) < n && p.Err != nil {
				t.Fatalf("plane %d failed (%v) below the last of %d verdicts for a run of %d", i, p.Err, len(got), n)
			}
		}
		for i, p := range got {
			if p.Err == nil && len(p.Raw) != raw {
				t.Fatalf("plane %d: a %d-byte bitset passed for a %d-byte plane", i, len(p.Raw), raw)
			}
			if p.Err != nil && p.Raw != nil {
				t.Fatalf("plane %d: failed (%v) yet carries %d bytes", i, p.Err, len(p.Raw))
			}
		}
		bounded.mu.Lock()
		defer bounded.mu.Unlock()
		if bounded.over != "" {
			t.Fatal(bounded.over)
		}
	})
}

package app

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mosquitonet/internal/ip"
)

const testHTTPPort = 8080

func startEcho(t *testing.T, r *rig) *HTTPServer {
	t.Helper()
	srv, err := NewHTTPServer(r.b, ip.Unspecified, testHTTPPort, "web", EchoHandler)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func dialHTTP(t *testing.T, r *rig, id string) *HTTPClient {
	t.Helper()
	c := NewHTTPClient(r.a, id)
	up := false
	if err := c.Connect(r.bAddr, testHTTPPort, func(err error) {
		if err != nil {
			t.Errorf("connect: %v", err)
		}
		up = true
	}); err != nil {
		t.Fatal(err)
	}
	r.loop.RunFor(5 * time.Second)
	if !up || !c.Up() {
		t.Fatal("client not up")
	}
	return c
}

func TestHTTPEcho(t *testing.T) {
	r := newRig(t, 1)
	srv := startEcho(t, r)
	c := dialHTTP(t, r, "cli")

	var resp HTTPResponse
	var rerr error
	c.Do("POST", "/echo", []byte("payload"), func(rp HTTPResponse, err error) {
		resp, rerr = rp, err
		resp.Body = append([]byte(nil), rp.Body...) // lent for the call
	})
	r.loop.RunFor(time.Second)
	if rerr != nil || resp.Code != 200 || string(resp.Body) != "payload" {
		t.Fatalf("resp = %+v err = %v", resp, rerr)
	}
	if ss := srv.Stats(); ss.Requests != 1 || ss.Responses != 1 {
		t.Fatalf("server stats = %+v", ss)
	}
}

func TestHTTPPipelining(t *testing.T) {
	r := newRig(t, 1)
	startEcho(t, r)
	c := dialHTTP(t, r, "cli")

	// Three requests issued back to back, before any response: the
	// responses must come back in request order.
	var order []string
	for i := 0; i < 3; i++ {
		body := []byte(fmt.Sprintf("req-%d", i))
		c.Do("POST", "/p", body, func(rp HTTPResponse, err error) {
			if err != nil {
				t.Errorf("request failed: %v", err)
				return
			}
			order = append(order, string(rp.Body))
		})
	}
	if c.InFlight() != 3 {
		t.Fatalf("in flight = %d", c.InFlight())
	}
	r.loop.RunFor(time.Second)
	if len(order) != 3 || order[0] != "req-0" || order[1] != "req-1" || order[2] != "req-2" {
		t.Fatalf("response order = %v", order)
	}
	if c.InFlight() != 0 {
		t.Fatalf("in flight after drain = %d", c.InFlight())
	}
}

func TestHTTPClientCloseFailsPending(t *testing.T) {
	r := newRig(t, 1)
	startEcho(t, r)
	c := dialHTTP(t, r, "cli")

	failed := 0
	c.Do("GET", "/x", nil, func(_ HTTPResponse, err error) {
		if err != nil {
			failed++
		}
	})
	c.Close() // before the loop runs: the response can never arrive
	if failed != 1 {
		t.Fatalf("pending failed = %d, want 1", failed)
	}
	if err := c.Do("GET", "/y", nil, nil); err != ErrNotConnected {
		t.Fatalf("Do after close = %v", err)
	}
}

// TestHTTPServerDropsMalformed: a malformed request drops the connection
// and counts once, also when another malformed one follows it in the same
// chunk.
func TestHTTPServerDropsMalformed(t *testing.T) {
	const bad = "POST /x MNET/1.0\r\nContent-Length: banana\r\n\r\n"
	for _, stream := range []string{bad, "POST /x HTTP/9\r\n\r\n" + bad} {
		r := newRig(t, 1)
		srv := startEcho(t, r)
		conn, err := r.a.Connect(ip.Unspecified, r.bAddr, testHTTPPort)
		if err != nil {
			t.Fatal(err)
		}
		conn.OnEstablished = func() { conn.Write([]byte(stream)) }
		r.loop.RunFor(5 * time.Second)
		if ss := srv.Stats(); ss.BadRequests != 1 || ss.ConnsClosed != 1 {
			t.Fatalf("%q: server stats = %+v", stream, ss)
		}
	}
}

func TestHTTPParserSplitAcrossChunks(t *testing.T) {
	var p httpParser
	var starts []string
	var bodies [][]byte
	deliver := func(s string, b []byte) { starts = append(starts, s); bodies = append(bodies, b) }

	wire := appendHTTPRequest(nil, "POST", "/a", []byte("12345"))
	wire = appendHTTPRequest(wire, "GET", "/b", nil)
	for _, b := range wire {
		if !p.feed([]byte{b}, deliver) {
			t.Fatal("well-formed message rejected")
		}
	}
	if len(starts) != 2 || starts[0] != "POST /a MNET/1.0" || starts[1] != "GET /b MNET/1.0" {
		t.Fatalf("starts = %v", starts)
	}
	if !bytes.Equal(bodies[0], []byte("12345")) || len(bodies[1]) != 0 {
		t.Fatalf("bodies = %q", bodies)
	}
}

func TestHTTPParserRejectsOversizedHead(t *testing.T) {
	var p httpParser
	junk := bytes.Repeat([]byte("x"), maxHTTPHead+8)
	if p.feed(junk, func(string, []byte) {}) {
		t.Fatal("oversized head accepted")
	}
}

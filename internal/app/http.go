package app

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/trace"
	"mosquitonet/internal/transport"
)

// The HTTP/1.x-style protocol: text-framed request/response over one
// keep-alive stream connection, with pipelining. A request is
//
//	<METHOD> <path> MNET/1.0\r\n
//	Content-Length: <n>\r\n
//	\r\n
//	<n body bytes>
//
// and a response is
//
//	MNET/1.0 <code>\r\n
//	Content-Length: <n>\r\n
//	\r\n
//	<n body bytes>
//
// The client may send any number of requests without waiting; the server
// answers strictly in order, so the client matches responses to requests
// FIFO — exactly HTTP/1.1 pipelining semantics.
const httpVersion = "MNET/1.0"

// maxHTTPHead bounds the header block of one message.
const maxHTTPHead = 4096

// MaxHTTPBody is the largest request or response body a peer's parser
// accepts.
const MaxHTTPBody = maxFrameBody

// HTTPRequest is one parsed request. Body is lent for the handler call: a
// window into the connection's parser, see lentBuf.
type HTTPRequest struct {
	Method string
	Path   string
	Body   []byte
}

// HTTPResponse is one response. On the client side Body is lent for the
// done callback, like a request's; a handler's response is encoded before
// the server reads the next request, so it may be the request's own body.
type HTTPResponse struct {
	Code int
	Body []byte
}

// HTTPHandler produces the response for one request. Handlers run inline
// in the simulation loop; one that keeps req.Body past its return copies it.
//
//mnet:ownership borrows req
type HTTPHandler func(req HTTPRequest) HTTPResponse

// httpDeliver receives one message from an httpParser.
//
//mnet:ownership borrows body
type httpDeliver func(start string, body []byte)

var (
	crlf          = []byte("\r\n")
	headEnd       = []byte("\r\n\r\n")
	contentLength = []byte("Content-Length:")
)

// httpParser incrementally splits a text-framed message stream into
// (start line, body) pairs, each body lent for the deliver call.
type httpParser struct{ lentBuf }

// feed appends chunk and delivers every complete message. It returns false
// on a malformed message (oversized head, bad Content-Length), at which
// point the caller should drop the connection.
func (p *httpParser) feed(chunk []byte, deliver httpDeliver) bool {
	p.enter(chunk)
	defer p.leave()
	for {
		rest := p.buf[p.off:]
		head := bytes.Index(rest, headEnd)
		if head < 0 {
			// A head of maxHTTPHead bytes ends its terminator here at the
			// latest, however the stream was cut into chunks.
			return len(rest) < maxHTTPHead+len(headEnd)
		}
		if head > maxHTTPHead {
			return false
		}
		start, fields, _ := bytes.Cut(rest[:head], crlf)
		clen, ok := contentLengthOf(fields)
		if !ok {
			return false
		}
		total := head + len(headEnd) + clen
		if len(rest) < total {
			return true
		}
		p.off += total
		deliver(string(start), rest[total-clen:total:total])
	}
}

// contentLengthOf walks the header lines after the start line and returns
// the last Content-Length (zero when there is none), or false when one is
// not a length a message may have.
func contentLengthOf(fields []byte) (int, bool) {
	clen := 0
	for len(fields) > 0 {
		var line []byte
		line, fields, _ = bytes.Cut(fields, crlf)
		if v, ok := bytes.CutPrefix(line, contentLength); ok {
			n, err := strconv.Atoi(string(bytes.TrimSpace(v)))
			if err != nil || n < 0 || n > MaxHTTPBody {
				return 0, false
			}
			clen = n
		}
	}
	return clen, true
}

// appendHTTPRequest serializes one request.
func appendHTTPRequest(dst []byte, method, path string, body []byte) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, path...)
	dst = append(dst, ' ')
	dst = append(dst, httpVersion...)
	dst = append(dst, "\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = append(dst, "\r\n\r\n"...)
	return append(dst, body...)
}

// appendHTTPResponse serializes one response.
func appendHTTPResponse(dst []byte, code int, body []byte) []byte {
	dst = append(dst, httpVersion...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(code), 10)
	dst = append(dst, "\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = append(dst, "\r\n\r\n"...)
	return append(dst, body...)
}

// HTTPServerStats counts server activity.
type HTTPServerStats struct {
	Accepted    uint64
	Requests    uint64
	Responses   uint64
	BadRequests uint64 // malformed message; connection dropped
	ConnsClosed uint64
}

// HTTPServer serves the request/response protocol on one TCP port with
// keep-alive connections.
type HTTPServer struct {
	ts      *transport.Stack
	loop    *sim.Loop
	name    string
	handler HTTPHandler

	conns []*httpServerConn
	stats HTTPServerStats
}

type httpServerConn struct {
	srv    *HTTPServer
	conn   *transport.Conn
	parser httpParser
	wbuf   []byte // encode scratch, see writeMsg
	closed bool
}

// NewHTTPServer starts a server on (bound, port). handler runs for every
// request, in arrival order.
func NewHTTPServer(ts *transport.Stack, bound ip.Addr, port uint16, name string, handler HTTPHandler) (*HTTPServer, error) {
	s := &HTTPServer{ts: ts, loop: ts.Host().Loop(), name: name, handler: handler}
	if _, err := ts.Listen(bound, port, s.accept); err != nil {
		return nil, err
	}
	return s, nil
}

// Stats returns a snapshot of the server's counters.
func (s *HTTPServer) Stats() HTTPServerStats { return s.stats }

func (s *HTTPServer) accept(conn *transport.Conn) {
	sc := &httpServerConn{srv: s, conn: conn}
	s.stats.Accepted++
	s.conns = append(s.conns, sc)
	conn.OnData = func(chunk []byte) {
		if !sc.parser.feed(chunk, sc.request) && !sc.closed {
			s.stats.BadRequests++
			sc.close()
			conn.Abort()
		}
	}
	conn.OnRemoteClose = func() { sc.close(); conn.Close() }
	conn.OnError = func(error) { sc.close() }
}

func (sc *httpServerConn) close() {
	if sc.closed {
		return
	}
	sc.closed = true
	sc.srv.stats.ConnsClosed++
	for i, other := range sc.srv.conns {
		if other == sc {
			sc.srv.conns = append(sc.srv.conns[:i], sc.srv.conns[i+1:]...)
			break
		}
	}
}

// request handles one parsed request line + body.
func (sc *httpServerConn) request(start string, body []byte) {
	if sc.closed {
		return
	}
	parts := strings.SplitN(start, " ", 3)
	if len(parts) != 3 || parts[2] != httpVersion {
		sc.srv.stats.BadRequests++
		sc.close()
		sc.conn.Abort()
		return
	}
	sc.srv.stats.Requests++
	resp := sc.srv.handler(HTTPRequest{Method: parts[0], Path: parts[1], Body: body})
	sc.srv.stats.Responses++
	sc.wbuf, _ = writeMsg(sc.conn, appendHTTPResponse(sc.wbuf, resp.Code, resp.Body))
}

// HTTPClient issues pipelined requests over one keep-alive connection.
type HTTPClient struct {
	ts     *transport.Stack
	loop   *sim.Loop
	tracer *trace.Tracer
	actor  string // span actor: host/id

	conn    *transport.Conn
	parser  httpParser
	wbuf    []byte // encode scratch, see writeMsg
	up      bool
	closed  bool
	onUp    func(error)
	pending []*httpPending // FIFO: responses arrive in request order

	// OnDisconnect, if set, fires when the connection dies.
	OnDisconnect func(error)
}

type httpPending struct {
	span *trace.Span
	done func(HTTPResponse, error)
}

// NewHTTPClient creates a client on the given transport stack.
func NewHTTPClient(ts *transport.Stack, id string) *HTTPClient {
	return &HTTPClient{
		ts:     ts,
		loop:   ts.Host().Loop(),
		tracer: trace.For(ts.Host().Loop()),
		actor:  ts.Host().Name() + "/" + id,
	}
}

// Up reports whether the connection is established.
func (c *HTTPClient) Up() bool { return c.up }

// InFlight returns the number of requests awaiting a response.
func (c *HTTPClient) InFlight() int { return len(c.pending) }

// Connect dials the server. onUp (optional) fires when the connection is
// established, or with an error if it fails first. Requests may be issued
// immediately after Connect returns — they queue behind the handshake.
func (c *HTTPClient) Connect(server ip.Addr, port uint16, onUp func(error)) error {
	if c.closed {
		return ErrClosed
	}
	conn, err := c.ts.Connect(ip.Unspecified, server, port)
	if err != nil {
		return err
	}
	c.conn = conn
	c.onUp = onUp
	conn.OnEstablished = func() {
		c.up = true
		if c.onUp != nil {
			cb := c.onUp
			c.onUp = nil
			cb(nil)
		}
	}
	conn.OnData = func(chunk []byte) {
		if !c.parser.feed(chunk, c.response) {
			c.fail(fmt.Errorf("app: malformed response from %s:%d", server, port))
		}
	}
	conn.OnError = func(err error) { c.fail(err) }
	conn.OnRemoteClose = func() { c.fail(ErrClosed) }
	return nil
}

// Do issues one request. done fires with the response, or with an error if
// the connection dies first. Multiple outstanding requests pipeline. body is
// borrowed: it is encoded into the connection before Do returns. A body over
// MaxHTTPBody is ErrTooLarge.
func (c *HTTPClient) Do(method, path string, body []byte, done func(HTTPResponse, error)) error {
	if c.closed || c.conn == nil {
		return ErrNotConnected
	}
	if len(body) > MaxHTTPBody {
		return ErrTooLarge
	}
	// Root span: pipelined requests overlap and must not ambient-nest.
	sp := c.tracer.StartChild(nil, c.actor, kSpanHTTPRequest)
	sp.SetAttr("path", path)
	c.pending = append(c.pending, &httpPending{span: sp, done: done})
	var err error
	c.wbuf, err = writeMsg(c.conn, appendHTTPRequest(c.wbuf, method, path, body))
	return err
}

// Close ends the session with an orderly stream close.
func (c *HTTPClient) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.up = false
	c.failPending(ErrClosed)
	if c.conn != nil {
		c.conn.Close()
	}
}

// fail marks the client dead and flushes every pending callback.
func (c *HTTPClient) fail(err error) {
	if c.closed {
		return
	}
	c.closed = true
	c.up = false
	if c.onUp != nil {
		cb := c.onUp
		c.onUp = nil
		cb(err)
	}
	c.failPending(err)
	if c.OnDisconnect != nil {
		c.OnDisconnect(err)
	}
}

func (c *HTTPClient) failPending(err error) {
	pending := c.pending
	c.pending = nil
	for _, p := range pending {
		p.span.Fail(err)
		if p.done != nil {
			p.done(HTTPResponse{}, err)
		}
	}
}

// response handles one parsed response line + body, matched FIFO.
func (c *HTTPClient) response(start string, body []byte) {
	if len(c.pending) == 0 {
		return
	}
	parts := strings.SplitN(start, " ", 2)
	code := 0
	if len(parts) == 2 && parts[0] == httpVersion {
		code, _ = strconv.Atoi(strings.TrimSpace(parts[1]))
	}
	p := c.pending[0]
	c.pending = c.pending[1:]
	p.span.Done()
	if p.done != nil {
		p.done(HTTPResponse{Code: code, Body: body}, nil)
	}
}

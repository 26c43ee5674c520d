package app

// The PoisonLentBodies methods rewire the connections their owner has open
// so that every message body is overwritten the moment the deliver call it
// was lent for returns — what the parser's next compaction or append does to
// it eventually, done at once so that a handler which kept the bytes reads
// garbage every time, not only when the buffer happens to be reused.
// Connections opened afterwards are not covered.

func poison(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}

func (b *Broker) PoisonLentBodies() {
	for _, s := range b.sessions {
		s := s
		s.conn.OnData = func(chunk []byte) {
			if !s.reader.Feed(chunk, func(typ, flags byte, body []byte) { s.frame(typ, flags, body); poison(body) }) && !s.closed {
				b.stats.DropBadFrame++
				s.drop("bad frame")
			}
		}
	}
}

func (c *Client) PoisonLentBodies() {
	c.conn.OnData = func(chunk []byte) {
		if !c.reader.Feed(chunk, func(typ, flags byte, body []byte) { c.frame(typ, flags, body); poison(body) }) {
			c.fail(ErrClosed)
		}
	}
}

func (s *HTTPServer) PoisonLentBodies() {
	for _, sc := range s.conns {
		sc := sc
		sc.conn.OnData = func(chunk []byte) {
			if !sc.parser.feed(chunk, func(start string, body []byte) { sc.request(start, body); poison(body) }) && !sc.closed {
				s.stats.BadRequests++
				sc.close()
				sc.conn.Abort()
			}
		}
	}
}

func (c *HTTPClient) PoisonLentBodies() {
	c.conn.OnData = func(chunk []byte) {
		if !c.parser.feed(chunk, func(start string, body []byte) { c.response(start, body); poison(body) }) {
			c.fail(ErrClosed)
		}
	}
}

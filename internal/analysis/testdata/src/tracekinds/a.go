// Fixture for the tracekinds analyzer. Self-contained: it declares its
// own Tracer with the real method shapes, a conventional wrapper pair
// (trace/startSpan), and a PacketLog whose same-named Record method has
// no kind to check but must not build its detail at the call site.
package fixture

type Span struct{}

type Tracer struct{}

func (t *Tracer) Record(actor, kind, format string, args ...any)    {}
func (t *Tracer) StartSpan(actor, kind string) *Span                { return &Span{} }
func (t *Tracer) StartChild(parent *Span, actor, kind string) *Span { return &Span{} }

// PacketLog.Record shares the method name but not the receiver type; its
// point argument is out of scope, its detail argument is not.
type PacketLog struct{}

func (p *PacketLog) Record(trace uint64, actor, kind, detail string) {}

type addr [4]byte

func (a addr) String() string { return "a.b.c.d" }

const reasonTTL = "ttl " + "expired"

const (
	kGood   = "reg.attempt"
	kUpper  = "Reg.Attempt"
	kNoDots = "regattempt"
)

type host struct {
	t      *Tracer
	reason string
}

// The wrappers themselves forward a parameter — not a constant, so the
// forwarding call is skipped; enforcement happens at the wrapper's callers.
func (h *host) trace(kind, format string, args ...any) { h.t.Record("h", kind, format, args...) }
func (h *host) startSpan(kind string) *Span            { return h.t.StartSpan("h", kind) }

func uses(t *Tracer, h *host, p *PacketLog, dynamic string) {
	t.Record("mh", kGood, "registered")
	t.Record("mh", "reg.inline", "registered") // want "inline kind literal"
	t.Record("mh", dynamic, "registered")      // non-constant: skipped

	s := t.StartSpan("mh", kGood)
	t.StartSpan("mh", "handoff.cold") // want "inline kind literal"
	t.StartChild(s, "mh", kGood)
	t.StartChild(nil, "mh", kUpper)  // want "not a lowercase dotted path"
	t.StartChild(nil, "mh", kNoDots) // want "not a lowercase dotted path"

	h.trace(kGood, "renewing")
	h.trace("reg.renew", "renewing") // want "inline kind literal"
	h.startSpan(kGood)
	h.startSpan(kNoDots) // want "not a lowercase dotted path"

	p.Record(1, "h", "ip.drop", "no route") // different receiver: kind not checked
	p.Record(1, "h", "ip.drop", reasonTTL)
	p.Record(1, "h", "ip.deliver", dynamic)
	var dst addr
	p.Record(1, "h", "ip.drop", dst.String())           // want "must be a constant or a plain identifier"
	p.Record(1, "h", "ip.drop", "no route to "+dynamic) // want "must be a constant or a plain identifier"
	p.Record(1, "h", "ip.drop", h.reason)               // want "must be a constant or a plain identifier"
	p.Record(1, "h", "ip.drop", "no route "+"anywhere") // constant expression
}

package dns

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/transport"
)

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{ID: 7, Op: OpQuery, Name: "mh.mosquito.stanford.edu"}
	raw, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *m {
		t.Fatalf("round trip: %+v vs %+v", got, m)
	}
}

func TestNameNormalization(t *testing.T) {
	m := &Message{ID: 1, Op: OpQuery, Name: "MH.Example.COM."}
	raw, _ := m.Marshal()
	got, _ := Unmarshal(raw)
	if got.Name != "mh.example.com" {
		t.Fatalf("name = %q", got.Name)
	}
}

func TestBadNames(t *testing.T) {
	for _, bad := range []string{"", ".", "a..b", "a..", strings.Repeat("x", 64) + ".com", strings.Repeat("abcdefgh.", 32) + "com"} {
		m := &Message{ID: 1, Op: OpQuery, Name: bad}
		if _, err := m.Marshal(); err == nil {
			t.Errorf("marshal accepted %q", bad)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte{1, 2}); err != ErrShortMessage {
		t.Errorf("short: %v", err)
	}
	// Name that runs past the buffer.
	if _, err := Unmarshal([]byte{0, 1, 0, 0, 40, 'a', 'b'}); err != ErrBadName {
		t.Errorf("overrun: %v", err)
	}
	// Missing address after the terminator.
	if _, err := Unmarshal([]byte{0, 1, 0, 0, 1, 'a', 0, 1}); err != ErrShortMessage {
		t.Errorf("missing addr: %v", err)
	}
}

func TestPropertyMessageRoundTrip(t *testing.T) {
	f := func(id uint16, op, rcode uint8, l1, l2 uint8, addr [4]byte) bool {
		label := func(n uint8) string {
			return strings.Repeat("a", int(n%63)+1)
		}
		m := &Message{ID: id, Op: op, Rcode: rcode, Name: label(l1) + "." + label(l2), Addr: addr}
		raw, err := m.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(raw)
		return err == nil && *got == *m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1996))}); err != nil {
		t.Fatal(err)
	}
}

// env is a DNS server and a client host on one subnet.
type env struct {
	loop   *sim.Loop
	server *Server
	res    *Resolver
	net    *link.Network
}

func newEnv(t *testing.T, cfg ServerConfig) *env {
	t.Helper()
	loop := sim.New(1)
	n := link.NewNetwork(loop, "net", link.Ethernet())
	mk := func(name, addr string) *transport.Stack {
		h := stack.NewHost(loop, name, stack.Config{})
		d := link.NewDevice(loop, name+"-eth", 0, 0)
		d.Attach(n)
		d.BringUp(nil)
		ifc := h.AddIface("eth0", d, ip.MustParseAddr(addr), ip.MustParsePrefix("10.0.0.0/24"), stack.IfaceOpts{})
		h.ConnectRoute(ifc)
		loop.RunFor(0)
		return transport.NewStack(h)
	}
	srvTS := mk("dns", "10.0.0.53")
	srv, err := NewServer(srvTS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cliTS := mk("client", "10.0.0.2")
	return &env{
		loop:   loop,
		server: srv,
		res:    NewResolver(cliTS, ip.MustParseAddr("10.0.0.53")),
		net:    n,
	}
}

func TestResolve(t *testing.T) {
	e := newEnv(t, ServerConfig{Zone: map[string]ip.Addr{
		"mh.mosquito.edu": ip.MustParseAddr("36.135.0.7"),
	}})
	var got ip.Addr
	var gotErr error
	e.res.Resolve("MH.Mosquito.EDU.", func(a ip.Addr, err error) { got, gotErr = a, err })
	e.loop.RunFor(2 * time.Second)
	if gotErr != nil || got != ip.MustParseAddr("36.135.0.7") {
		t.Fatalf("got %v err=%v", got, gotErr)
	}
	if e.server.Stats().Answered != 1 {
		t.Fatalf("stats: %+v", e.server.Stats())
	}
}

func TestResolveNXDomain(t *testing.T) {
	e := newEnv(t, ServerConfig{})
	var gotErr error
	e.res.Resolve("nobody.example.com", func(_ ip.Addr, err error) { gotErr = err })
	e.loop.RunFor(2 * time.Second)
	if !errors.Is(gotErr, ErrNXDomain) {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestResolveTimeoutWithoutServer(t *testing.T) {
	e := newEnv(t, ServerConfig{})
	res := NewResolver(e.res.ts, ip.MustParseAddr("10.0.0.99"))
	var gotErr error
	done := false
	res.Resolve("mh.example.com", func(_ ip.Addr, err error) { gotErr, done = err, true })
	e.loop.RunFor(5 * time.Second)
	if !done || !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v done=%v", gotErr, done)
	}
}

func TestResolveRetriesThroughLoss(t *testing.T) {
	loop := sim.New(3)
	m := link.Ethernet()
	m.LossProb = 0.4
	n := link.NewNetwork(loop, "lossy", m)
	mk := func(name, addr string) *transport.Stack {
		h := stack.NewHost(loop, name, stack.Config{})
		d := link.NewDevice(loop, name+"-eth", 0, 0)
		d.Attach(n)
		d.BringUp(nil)
		ifc := h.AddIface("eth0", d, ip.MustParseAddr(addr), ip.MustParsePrefix("10.0.0.0/24"), stack.IfaceOpts{})
		h.ConnectRoute(ifc)
		loop.RunFor(0)
		return transport.NewStack(h)
	}
	if _, err := NewServer(mk("dns", "10.0.0.53"), ServerConfig{Zone: map[string]ip.Addr{"mh.x.y": ip.MustParseAddr("1.2.3.4")}}); err != nil {
		t.Fatal(err)
	}
	res := NewResolver(mk("client", "10.0.0.2"), ip.MustParseAddr("10.0.0.53"))
	okCount := 0
	for i := 0; i < 10; i++ {
		res.Resolve("mh.x.y", func(a ip.Addr, err error) {
			if err == nil && a == ip.MustParseAddr("1.2.3.4") {
				okCount++
			}
		})
		loop.RunFor(5 * time.Second)
	}
	if okCount < 8 {
		t.Fatalf("only %d/10 resolved through 40%% loss", okCount)
	}
}

func TestDynamicUpdate(t *testing.T) {
	e := newEnv(t, ServerConfig{
		AllowUpdate: func(name string, _ ip.Addr, from ip.Addr) bool {
			return from == ip.MustParseAddr("10.0.0.2") // only our client
		},
	})
	var upErr error
	e.res.Update("laptop.mosquito.edu", ip.MustParseAddr("36.135.0.7"), func(err error) { upErr = err })
	e.loop.RunFor(2 * time.Second)
	if upErr != nil {
		t.Fatal(upErr)
	}
	if a, ok := e.server.Lookup("laptop.mosquito.edu"); !ok || a != ip.MustParseAddr("36.135.0.7") {
		t.Fatalf("zone not updated: %v %v", a, ok)
	}
	var got ip.Addr
	e.res.Resolve("laptop.mosquito.edu", func(a ip.Addr, err error) { got = a })
	e.loop.RunFor(2 * time.Second)
	if got != ip.MustParseAddr("36.135.0.7") {
		t.Fatalf("resolve after update: %v", got)
	}
}

func TestUpdateRefusedByDefault(t *testing.T) {
	e := newEnv(t, ServerConfig{}) // no AllowUpdate hook
	var upErr error
	e.res.Update("x.y.z", ip.MustParseAddr("1.1.1.1"), func(err error) { upErr = err })
	e.loop.RunFor(2 * time.Second)
	if !errors.Is(upErr, ErrRefused) {
		t.Fatalf("err = %v", upErr)
	}
	if e.server.Stats().UpdatesRefused != 1 {
		t.Fatalf("stats: %+v", e.server.Stats())
	}
}

func TestSetRecordAdministrative(t *testing.T) {
	e := newEnv(t, ServerConfig{})
	e.server.SetRecord("Admin.Example.COM", ip.MustParseAddr("9.9.9.9"))
	if a, ok := e.server.Lookup("admin.example.com"); !ok || a != ip.MustParseAddr("9.9.9.9") {
		t.Fatal("SetRecord/Lookup normalization broken")
	}
}

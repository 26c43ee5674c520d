package scenario

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/stack"
)

// Console is a line-oriented admin interface over a compiled world:
// inspect and mutate routes, list bindings, and inject faults, either
// immediately or scheduled at a virtual-time offset
// ("at 3s fault ha-crash router 1s"). cmd/mnet wires it to -admin so a
// run can be steered from a script or stdin; tests drive Exec directly.
// Every mutation goes through the same seams the scenario schema uses,
// so an admin session is exactly as deterministic as a spec — replaying
// the same script against the same seed reproduces the run.
type Console struct {
	w   *World
	out io.Writer
}

// NewConsole attaches a console to a compiled world, writing command
// output to out.
func NewConsole(w *World, out io.Writer) *Console {
	return &Console{w: w, out: out}
}

// Load reads a command script: one command per line, '#' comments and
// blank lines ignored. Lines of the form "at <offset> <command...>" are
// scheduled at that virtual-time offset from now; all other lines
// execute immediately. A parse or resolution error stops the load.
func (c *Console) Load(r io.Reader) error {
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "at" {
			if len(fields) < 3 {
				return fmt.Errorf("admin line %d: at needs an offset and a command", n)
			}
			offset, err := time.ParseDuration(fields[1])
			if err != nil {
				return fmt.Errorf("admin line %d: %w", n, err)
			}
			if offset < 0 || offset > time.Duration(math.MaxInt64-int64(c.w.Loop.Now())) {
				return fmt.Errorf("admin line %d: offset %v is not in the future of the run", n, offset)
			}
			rest := strings.Join(fields[2:], " ")
			c.w.Loop.Schedule(offset, func() {
				if err := c.Exec(rest); err != nil {
					fmt.Fprintf(c.out, "admin [%v] %s: %v\n", c.w.Loop.Now(), rest, err)
				}
			})
			continue
		}
		if err := c.Exec(line); err != nil {
			return fmt.Errorf("admin line %d: %w", n, err)
		}
	}
	return sc.Err()
}

// Exec runs one console command.
func (c *Console) Exec(line string) error {
	f := strings.Fields(line)
	if len(f) == 0 {
		return nil
	}
	switch f[0] {
	case "help":
		fmt.Fprint(c.out, adminHelp)
		return nil
	case "show":
		return c.show(f[1:])
	case "add-route":
		return c.addRoute(f[1:])
	case "del-route":
		return c.delRoute(f[1:])
	case "fault":
		return c.fault(f[1:])
	default:
		return fmt.Errorf("unknown command %q (try help)", f[0])
	}
}

const adminHelp = `commands:
  show hosts | faults | metrics
  show routes <host> | bindings [<router>]
  add-route <host> <prefix> <gateway> <iface>
  del-route <host> <prefix>
  fault link-flap <device> <for>
  fault loss-burst <subnet> <prob> <for>
  fault ha-crash <router> <for>
  fault agent-delay <router> <delay> <for>
  at <offset> <command...>   (schedule at virtual-time offset)
`

func (c *Console) host(name string) (*stack.Host, error) {
	h, ok := c.w.Host(name)
	if !ok {
		return nil, fmt.Errorf("unknown host %q (have %s)", name, strings.Join(c.w.HostNames(), ", "))
	}
	return h, nil
}

func (c *Console) show(f []string) error {
	if len(f) == 0 {
		return fmt.Errorf("show what? (try help)")
	}
	switch f[0] {
	case "hosts":
		fmt.Fprintf(c.out, "%s\n", strings.Join(c.w.HostNames(), "\n"))
		return nil
	case "faults":
		fmt.Fprint(c.out, c.w.Faults.String())
		return nil
	case "metrics":
		fmt.Fprint(c.out, c.w.Metrics.Snapshot().Table())
		return nil
	case "routes":
		if len(f) != 2 {
			return fmt.Errorf("show routes <host>")
		}
		h, err := c.host(f[1])
		if err != nil {
			return err
		}
		fmt.Fprint(c.out, h.Routes().String())
		return nil
	case "bindings":
		names := f[1:]
		if len(names) == 0 {
			for _, r := range c.w.Spec.Topology.Routers {
				if _, ok := c.w.HAs[r.Name]; ok {
					names = append(names, r.Name)
				}
			}
		}
		for _, name := range names {
			ha, ok := c.w.HAs[name]
			if !ok {
				return fmt.Errorf("no home agent on router %q", name)
			}
			bs := ha.Bindings()
			fmt.Fprintf(c.out, "%s: %d binding(s)\n", name, len(bs))
			for _, b := range bs {
				fmt.Fprintf(c.out, "  %v -> %v extras=%v expires=%v id=%d\n",
					b.HomeAddr, b.CareOf, b.Extras, time.Duration(b.Expires), b.ID)
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown show target %q", f[0])
	}
}

func (c *Console) addRoute(f []string) error {
	if len(f) != 4 {
		return fmt.Errorf("add-route <host> <prefix> <gateway> <iface>")
	}
	h, err := c.host(f[0])
	if err != nil {
		return err
	}
	pfx, err := ip.ParsePrefix(f[1])
	if err != nil {
		return err
	}
	gw, err := ip.ParseAddr(f[2])
	if err != nil {
		return err
	}
	ifc := h.IfaceByName(f[3])
	if ifc == nil {
		return fmt.Errorf("host %q has no iface %q", f[0], f[3])
	}
	h.Routes().Add(stack.Route{Dst: pfx, Gateway: gw, Iface: ifc})
	fmt.Fprintf(c.out, "added %v via %v dev %s on %s\n", pfx, gw, f[3], f[0])
	return nil
}

func (c *Console) delRoute(f []string) error {
	if len(f) != 2 {
		return fmt.Errorf("del-route <host> <prefix>")
	}
	h, err := c.host(f[0])
	if err != nil {
		return err
	}
	pfx, err := ip.ParsePrefix(f[1])
	if err != nil {
		return err
	}
	if !h.Routes().Delete(pfx) {
		return fmt.Errorf("host %q has no route to %v", f[0], pfx)
	}
	fmt.Fprintf(c.out, "deleted %v on %s\n", pfx, f[0])
	return nil
}

// fault injects one fault, striking now; "at" handles deferred strikes.
func (c *Console) fault(f []string) error {
	if len(f) < 1 {
		return fmt.Errorf("fault <kind> ... (try help)")
	}
	ft := Fault{Kind: f[0]}
	var err error
	parse := func(s string) Duration {
		var d time.Duration
		if err == nil {
			d, err = time.ParseDuration(s)
		}
		return Duration(d)
	}
	switch ft.Kind {
	case "link-flap":
		if len(f) != 3 {
			return fmt.Errorf("fault link-flap <device> <for>")
		}
		ft.Device, ft.For = f[1], parse(f[2])
	case "loss-burst":
		if len(f) != 4 {
			return fmt.Errorf("fault loss-burst <subnet> <prob> <for>")
		}
		ft.Subnet = f[1]
		if err == nil {
			ft.Prob, err = strconv.ParseFloat(f[2], 64)
		}
		ft.For = parse(f[3])
	case "ha-crash":
		if len(f) != 3 {
			return fmt.Errorf("fault ha-crash <router> <for>")
		}
		ft.Router, ft.For = f[1], parse(f[2])
	case "agent-delay":
		if len(f) != 4 {
			return fmt.Errorf("fault agent-delay <router> <delay> <for>")
		}
		ft.Router, ft.Delay, ft.For = f[1], parse(f[2]), parse(f[3])
	default:
		return fmt.Errorf("unknown fault kind %q (want one of %v)", ft.Kind, FaultKinds)
	}
	if err != nil {
		return err
	}
	if err := c.w.Faults.Schedule(ft); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "armed %s at %v\n", ft.Kind, c.w.Loop.Now())
	return nil
}

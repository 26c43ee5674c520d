package analysis

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mosquitonet/internal/analysis/bufownership"
	"mosquitonet/internal/analysis/dropaccounting"
	"mosquitonet/internal/analysis/framework"
	"mosquitonet/internal/analysis/nosharedstate"
	"mosquitonet/internal/analysis/nowallclock"
	"mosquitonet/internal/analysis/seededrand"
	"mosquitonet/internal/analysis/sortedrange"
	"mosquitonet/internal/analysis/tracekinds"
	"mosquitonet/internal/analysis/wireroundtrip"
)

// moduleRoot walks up from the test's working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// TestDatapathOwnershipSelfCheck runs bufownership over the real
// datapath packages and requires a clean bill. This is the regression net
// for the send-path buffer contract and the packet's: removing the
// bufpool.Put on arp's queue-overflow branch, retaining a delivered frame
// payload in the stack, reading a packet after Host.Output has it, or a
// tunnel hook stealing a packet it never releases fails this test with a
// concrete use-after-recycle/leak/verdict report instead of an intermittent
// data race.
func TestDatapathOwnershipSelfCheck(t *testing.T) {
	root := moduleRoot(t)
	loader, err := framework.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns([]string{
		"./internal/arp",
		"./internal/link",
		"./internal/stack",
		"./internal/ip",
		"./internal/bufpool",
		"./internal/tunnel",
		"./internal/transport",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 7 {
		t.Fatalf("loaded %d packages, want 7", len(pkgs))
	}
	for _, pkg := range pkgs {
		diags, err := pkg.Run(bufownership.Analyzer)
		if err != nil {
			t.Fatalf("bufownership over %s: %v", pkg.PkgPath, err)
		}
		for _, d := range diags {
			t.Errorf("bufownership: %s: %s", pkg.Fset.Position(d.Pos), d.Message)
		}
	}
}

// sharedStateAllowlist is where product code suppresses nosharedstate, and
// how often, by package directory: nowhere.
var sharedStateAllowlist = map[string]int{}

// TestSharedStateAllowlist pins where product code may suppress
// nosharedstate, and how often. Nothing does: state that belongs to one
// simulation — free lists, their ledgers, the hardware-address sequence —
// hangs off its loop (sim.Loop.Local). A new process-wide variable
// therefore needs an edit here, under review, and not just a justification
// beside it.
func TestSharedStateAllowlist(t *testing.T) {
	want := sharedStateAllowlist
	root := moduleRoot(t)
	got := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			// The analyzers, their fixtures and the benchmark module
			// are not the simulator.
			if rel == "internal/analysis" || rel == "perf" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if n := strings.Count(string(src), "//lint:allow nosharedstate"); n > 0 {
			got[filepath.ToSlash(filepath.Dir(rel))] += n
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("//lint:allow nosharedstate per package = %v, want %v", got, want)
	}
}

// runAnalyzer runs a over the packages the patterns name in the module at
// root. It returns the findings left after suppression and, by package
// directory, how many of a's //lint:allow directives suppressed one.
func runAnalyzer(t *testing.T, a *framework.Analyzer, root string, patterns ...string) (diags []string, allowed map[string]int) {
	t.Helper()
	loader, err := framework.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns(patterns)
	if err != nil {
		t.Fatal(err)
	}
	allowed = map[string]int{}
	for _, pkg := range pkgs {
		ds, err := pkg.Run(a)
		if err != nil {
			t.Fatalf("%s over %s: %v", a.Name, pkg.PkgPath, err)
		}
		for _, d := range ds {
			diags = append(diags, fmt.Sprintf("%s: %s", pkg.Fset.Position(d.Pos), d.Message))
		}
		for _, al := range pkg.AllowDirectives() {
			if al.Analyzer == a.Name && pkg.AllowUsed(al.Pos) {
				rel, _ := filepath.Rel(root, filepath.Dir(al.File))
				allowed[filepath.ToSlash(rel)]++
			}
		}
	}
	return diags, allowed
}

// mutantTree copies the module's simulator packages to a temporary
// directory, replaces the one occurrence of old in the file at rel (a path
// from the module root) with new, appends tail to it, and returns the
// copy's root.
func mutantTree(t *testing.T, rel, old, new, tail string) string {
	t.Helper()
	mut := t.TempDir()
	copyTree(t, moduleRoot(t), mut)
	file := filepath.Join(mut, filepath.FromSlash(rel))
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(src), old) != 1 {
		t.Fatalf("%s no longer holds %q once; point the mutant at its new place", rel, old)
	}
	if err := os.WriteFile(file, []byte(strings.Replace(string(src), old, new, 1)+tail), 0o644); err != nil {
		t.Fatal(err)
	}
	return mut
}

// TestSharedStateSelfCheck runs nosharedstate over the simulator's packages
// and requires a clean bill: the only package-level state anything mutates is
// what sharedStateAllowlist pins, each directive suppressing a finding. A
// per-loop free list, a registry or a table turned into a package variable
// fails here, as the mutant below shows.
func TestSharedStateSelfCheck(t *testing.T) {
	diags, allowed := runAnalyzer(t, nosharedstate.Analyzer, moduleRoot(t), ".", "./internal/...")
	for _, d := range diags {
		t.Errorf("nosharedstate: %s", d)
	}
	if !reflect.DeepEqual(allowed, sharedStateAllowlist) {
		t.Errorf("directives that suppressed a finding, per package = %v, want %v", allowed, sharedStateAllowlist)
	}

	// The mutant: the loop's hop records become one package-level list that
	// every loop's hosts share — one line changed, plus the declaration it
	// needs — in a copy of the tree.
	const perLoop = "hops: sim.RecordsOf[hop](loop)}"
	mut := mutantTree(t, "internal/stack/host.go", perLoop, "hops: &sharedHops}", "\nvar sharedHops sim.Records[hop]\n")
	diags, _ = runAnalyzer(t, nosharedstate.Analyzer, mut, "./internal/stack")
	if len(diags) != 1 || !strings.Contains(diags[0], "package-level var sharedHops") {
		t.Errorf("the shared hop list drew %q, want one finding on sharedHops", diags)
	}
}

// copyTree copies the module's go.mod and the Go files of its simulator
// packages (not the analyzers, their fixtures or perf/) from src to dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "internal/analysis" || rel == "perf" || rel == "cmd" || rel == "examples" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if rel != "go.mod" && !strings.HasSuffix(rel, ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWallClockSelfCheck runs nowallclock over the simulator's packages:
// the only reads of the wall clock are the shard workers' utilization
// accounting, each under its directive. A link device that stamps its
// bring-up with the wall clock as well — one line, in a copy of the tree —
// fails it.
func TestWallClockSelfCheck(t *testing.T) {
	diags, allowed := runAnalyzer(t, nowallclock.Analyzer, moduleRoot(t), ".", "./internal/...")
	for _, d := range diags {
		t.Errorf("nowallclock: %s", d)
	}
	if want := map[string]int{"internal/sim": 2}; !reflect.DeepEqual(allowed, want) {
		t.Errorf("directives that suppressed a finding, per package = %v, want %v", allowed, want)
	}

	const stamp = "d.upSince = d.loop.Now()"
	mut := mutantTree(t, "internal/link/link.go", stamp, stamp+"; _ = time.Now()", "")
	diags, _ = runAnalyzer(t, nowallclock.Analyzer, mut, "./internal/link")
	if len(diags) != 1 || !strings.Contains(diags[0], "time.Now is forbidden") {
		t.Errorf("the wall-clock stamp drew %q, want one finding on time.Now", diags)
	}
}

// TestSeededRandSelfCheck runs seededrand over the simulator's packages:
// the only source outside the loop's is the sweep generator's, seeded by
// its caller, under its directive. A sweep that draws its move count from
// the global source instead — one line, in a copy of the tree — fails it.
func TestSeededRandSelfCheck(t *testing.T) {
	diags, allowed := runAnalyzer(t, seededrand.Analyzer, moduleRoot(t), ".", "./internal/...")
	for _, d := range diags {
		t.Errorf("seededrand: %s", d)
	}
	if want := map[string]int{"internal/scenario": 1}; !reflect.DeepEqual(allowed, want) {
		t.Errorf("directives that suppressed a finding, per package = %v, want %v", allowed, want)
	}

	const draw = "sweepMinMoves + rng.Intn("
	mut := mutantTree(t, "internal/scenario/sweep.go", draw, "sweepMinMoves + rand.Intn(", "")
	diags, _ = runAnalyzer(t, seededrand.Analyzer, mut, "./internal/scenario")
	if len(diags) != 1 || !strings.Contains(diags[0], "global rand.Intn") {
		t.Errorf("the unseeded draw drew %q, want one finding on rand.Intn", diags)
	}
}

// TestSortedRangeSelfCheck runs sortedrange over the simulator's packages:
// every map enumeration that reaches ordered output is sorted first, or
// carries its directive. The span-kind count table that cmd/mnet -spans
// prints, built without its sort — one line, in a copy of the tree — fails
// it.
func TestSortedRangeSelfCheck(t *testing.T) {
	diags, allowed := runAnalyzer(t, sortedrange.Analyzer, moduleRoot(t), ".", "./internal/...")
	for _, d := range diags {
		t.Errorf("sortedrange: %s", d)
	}
	if want := map[string]int{}; !reflect.DeepEqual(allowed, want) {
		t.Errorf("directives that suppressed a finding, per package = %v, want %v", allowed, want)
	}

	mut := mutantTree(t, "internal/trace/span.go", "\tsort.Strings(kinds)\n", "", "")
	diags, _ = runAnalyzer(t, sortedrange.Analyzer, mut, "./internal/trace")
	if len(diags) != 1 || !strings.Contains(diags[0], "map iteration order reaches ordered output") {
		t.Errorf("the unsorted kind table drew %q, want one finding on its map range", diags)
	}
}

// TestWireRoundTripSelfCheck runs wireroundtrip over the simulator's
// packages: every wire format parses back and has a round-trip test. A
// second encoder for the PFA notification that nothing parses back — one
// line, in a copy of the tree — fails it.
func TestWireRoundTripSelfCheck(t *testing.T) {
	diags, allowed := runAnalyzer(t, wireroundtrip.Analyzer, moduleRoot(t), ".", "./internal/...")
	for _, d := range diags {
		t.Errorf("wireroundtrip: %s", d)
	}
	if want := map[string]int{}; !reflect.DeepEqual(allowed, want) {
		t.Errorf("directives that suppressed a finding, per package = %v, want %v", allowed, want)
	}

	const enc = "func (p *PFANotify) Marshal() []byte {"
	mut := mutantTree(t, "internal/mip/message.go", enc, enc+" return MarshalPFA(p) }\nfunc MarshalPFA(p *PFANotify) []byte {", "")
	diags, _ = runAnalyzer(t, wireroundtrip.Analyzer, mut, "./internal/mip")
	if len(diags) != 1 || !strings.Contains(diags[0], "wire format MarshalPFA has no matching UnmarshalPFA") {
		t.Errorf("the encoder with no parser drew %q, want one finding on MarshalPFA", diags)
	}
}

// TestDropAccountingSelfCheck runs dropaccounting over the simulator's
// packages: every discard path touches a drop counter, a drop-ish stats
// field or a Record call, or carries its directive (thirteen do, each
// naming where the packet went or who counted it). An ARP cache that drops
// a malformed frame without counting it — one line, in a copy of the tree —
// fails it.
func TestDropAccountingSelfCheck(t *testing.T) {
	diags, allowed := runAnalyzer(t, dropaccounting.Analyzer, moduleRoot(t), ".", "./internal/...")
	for _, d := range diags {
		t.Errorf("dropaccounting: %s", d)
	}
	if want := map[string]int{
		"internal/arp": 1, "internal/dhcp": 1, "internal/dns": 1, "internal/ip": 2, "internal/link": 1,
		"internal/mip": 2, "internal/scenario": 1, "internal/stack": 3, "internal/transport": 1,
	}; !reflect.DeepEqual(allowed, want) {
		t.Errorf("directives that suppressed a finding, per package = %v, want %v", allowed, want)
	}

	mut := mutantTree(t, "internal/arp/arp.go", "\t\tc.stats.DropMalformed++\n", "", "")
	diags, _ = runAnalyzer(t, dropaccounting.Analyzer, mut, "./internal/arp")
	if len(diags) != 1 || !strings.Contains(diags[0], "packet discarded without accounting") {
		t.Errorf("the uncounted malformed frame drew %q, want one finding on its return", diags)
	}
}

// TestTraceKindsSelfCheck runs tracekinds over the simulator's packages:
// every trace kind is a lowercase dotted package constant and every
// packet-log detail a constant or an identifier. A tunnel endpoint that
// opens its rebound span with an inline literal instead of its constant —
// one line, in a copy of the tree — fails it.
func TestTraceKindsSelfCheck(t *testing.T) {
	diags, allowed := runAnalyzer(t, tracekinds.Analyzer, moduleRoot(t), ".", "./internal/...")
	for _, d := range diags {
		t.Errorf("tracekinds: %s", d)
	}
	if want := map[string]int{}; !reflect.DeepEqual(allowed, want) {
		t.Errorf("directives that suppressed a finding, per package = %v, want %v", allowed, want)
	}

	mut := mutantTree(t, "internal/tunnel/tunnel.go", "StartSpan(name, kSpanRebound)", `StartSpan(name, "tunnel.rebound")`, "")
	diags, _ = runAnalyzer(t, tracekinds.Analyzer, mut, "./internal/tunnel")
	if len(diags) != 1 || !strings.Contains(diags[0], `inline kind literal "tunnel.rebound"`) {
		t.Errorf("the inline rebound kind drew %q, want one finding on the literal", diags)
	}
}

// TestBufOwnershipSelfCheck: a link device whose MTU refusal returns
// without putting back the payload it took — one line, in a copy of the
// tree — leaks a pooled buffer at a terminal, and bufownership says so once.
// TestDatapathOwnershipSelfCheck holds the real tree to a clean bill.
func TestBufOwnershipSelfCheck(t *testing.T) {
	const refusal = "\"exceeds MTU\")\n\t\tbufpool.For(d.loop).Put(f.Payload)\n"
	mut := mutantTree(t, "internal/link/link.go", refusal, "\"exceeds MTU\")\n", "")
	diags, _ := runAnalyzer(t, bufownership.Analyzer, mut, "./internal/link")
	if len(diags) != 1 || !strings.Contains(diags[0], "may leak: a path reaches a terminal") {
		t.Errorf("the unreturned payload drew %q, want one leak finding", diags)
	}
}

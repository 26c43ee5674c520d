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
	"mosquitonet/internal/analysis/framework"
	"mosquitonet/internal/analysis/nosharedstate"
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
// how often, by package directory.
var sharedStateAllowlist = map[string]int{
	"internal/bufpool": 1,
	"internal/ip":      1, // pool.go
	"internal/link":    1, // hwSeq
}

// TestSharedStateAllowlist pins where product code may suppress
// nosharedstate, and how often. What remains is a sequence read only while a
// topology is built (link's hardware addresses) and two free lists whose
// reuse order nothing observes (ip's packets, bufpool's buffers); state that
// belongs to one simulation hangs off its loop (sim.Loop.Local). A new
// process-wide variable therefore needs an edit here, under review, and not
// just a justification beside it.
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

// runSharedState runs nosharedstate over the packages the patterns name in
// the module at root. It returns the findings left after suppression and,
// by package directory, how many //lint:allow nosharedstate directives
// suppressed one.
func runSharedState(t *testing.T, root string, patterns ...string) (diags []string, allowed map[string]int) {
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
		ds, err := pkg.Run(nosharedstate.Analyzer)
		if err != nil {
			t.Fatalf("nosharedstate over %s: %v", pkg.PkgPath, err)
		}
		for _, d := range ds {
			diags = append(diags, fmt.Sprintf("%s: %s", pkg.Fset.Position(d.Pos), d.Message))
		}
		for _, a := range pkg.AllowDirectives() {
			if a.Analyzer == nosharedstate.Analyzer.Name && pkg.AllowUsed(a.Pos) {
				rel, _ := filepath.Rel(root, filepath.Dir(a.File))
				allowed[filepath.ToSlash(rel)]++
			}
		}
	}
	return diags, allowed
}

// TestSharedStateSelfCheck runs nosharedstate over the simulator's packages
// and requires a clean bill: the only package-level state anything mutates is
// what sharedStateAllowlist pins, each directive suppressing a finding. A
// per-loop free list, a registry or a table turned into a package variable
// fails here, as the mutant below shows.
func TestSharedStateSelfCheck(t *testing.T) {
	diags, allowed := runSharedState(t, moduleRoot(t), ".", "./internal/...")
	for _, d := range diags {
		t.Errorf("nosharedstate: %s", d)
	}
	if !reflect.DeepEqual(allowed, sharedStateAllowlist) {
		t.Errorf("directives that suppressed a finding, per package = %v, want %v", allowed, sharedStateAllowlist)
	}

	// The mutant: the loop's hop records become one package-level list that
	// every loop's hosts share — one line changed, plus the declaration it
	// needs — in a copy of the tree.
	mut := t.TempDir()
	copyTree(t, moduleRoot(t), mut)
	host := filepath.Join(mut, "internal", "stack", "host.go")
	src, err := os.ReadFile(host)
	if err != nil {
		t.Fatal(err)
	}
	const perLoop = "hops: sim.RecordsOf[hop](loop)}"
	if strings.Count(string(src), perLoop) != 1 {
		t.Fatalf("internal/stack/host.go no longer takes its hop records from the loop as %q; point the mutant at the list's new source", perLoop)
	}
	mutated := strings.Replace(string(src), perLoop, "hops: &sharedHops}", 1) + "\nvar sharedHops sim.Records[hop]\n"
	if err := os.WriteFile(host, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, _ = runSharedState(t, mut, "./internal/stack")
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

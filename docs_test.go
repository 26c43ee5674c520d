package mosquitonet

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// citingDocs are the documents whose citations the tests below resolve.
var citingDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// TestRoadmapCitationsResolve: every "ROADMAP item N" in DESIGN.md,
// README.md and EXPERIMENTS.md names a numbered Open item of ROADMAP.md, so
// a finished or renumbered item cannot leave a citation pointing nowhere.
func TestRoadmapCitationsResolve(t *testing.T) {
	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	items := openItems(string(roadmap))
	if len(items) == 0 {
		t.Fatal(`ROADMAP.md has no numbered items under "## Open items"`)
	}
	var have []int
	for n := range items {
		have = append(have, n)
	}
	sort.Ints(have)
	cite := regexp.MustCompile(`ROADMAP\s+item\s+(\d+)`)
	for _, doc := range citingDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, m := range cite.FindAllStringSubmatchIndex(text, -1) {
			if n, _ := strconv.Atoi(text[m[2]:m[3]]); !items[n] {
				line := 1 + strings.Count(text[:m[0]], "\n")
				t.Errorf("%s:%d: ROADMAP item %d is not a numbered Open item (have %v)", doc, line, n, have)
			}
		}
	}
}

// openItems returns the numbers of ROADMAP.md's Open items: the
// "N. **Title**" entries between "## Open items" and the next section.
func openItems(roadmap string) map[int]bool {
	_, rest, _ := strings.Cut(roadmap, "\n## Open items\n")
	section, _, _ := strings.Cut(rest, "\n## ")
	items := map[int]bool{}
	for _, m := range regexp.MustCompile(`(?m)^(\d+)\. \*\*`).FindAllStringSubmatch(section, -1) {
		n, _ := strconv.Atoi(m[1])
		items[n] = true
	}
	return items
}

// lineOf is the 1-based line of offset i in text.
func lineOf(text string, i int) int { return 1 + strings.Count(text[:i], "\n") }

// inRepo returns the path p names, looked up from the repository root and
// then from internal/, and whether it exists there.
func inRepo(p string) (string, bool) {
	for _, base := range []string{".", "internal"} {
		q := filepath.Join(base, filepath.FromSlash(p))
		if _, err := os.Stat(q); err == nil {
			return q, true
		}
	}
	return "", false
}

// withoutFences blanks the fenced code blocks of a Markdown text, keeping
// its line numbers: what a fence holds is a transcript, not a citation.
func withoutFences(text string) string {
	lines := strings.Split(text, "\n")
	in := false
	for i, l := range lines {
		fence := strings.HasPrefix(strings.TrimSpace(l), "```")
		if in || fence {
			lines[i] = ""
		}
		if fence {
			in = !in
		}
	}
	return strings.Join(lines, "\n")
}

// TestRepoPathsResolve: every backticked repository path in DESIGN.md,
// README.md and EXPERIMENTS.md names a file or directory that exists. A
// span is a repository path when it is one word holding a slash whose first
// element is an entry of the root or of internal/ (`internal/stack/route.go`,
// `stack/route.go`, `cmd/mnet/testdata/`, `./internal/...`); a trailing
// :N line citation is left to TestGoLineCitationsResolve, and a pattern
// (`bench/BENCH_*.json`, `examples/<name>/`) is not a path.
func TestRepoPathsResolve(t *testing.T) {
	span := regexp.MustCompile("`([^`\n]+)`")
	lineSuffix := regexp.MustCompile(`(:\d+([–-]\d+)?)+$`)
	for _, doc := range citingDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := withoutFences(string(data))
		for _, m := range span.FindAllStringSubmatchIndex(text, -1) {
			p := text[m[2]:m[3]]
			if strings.ContainsAny(p, " \t*<>{}[]$") || strings.Contains(p, "://") || strings.HasPrefix(p, "/") {
				continue
			}
			p = lineSuffix.ReplaceAllString(p, "")
			p = strings.TrimSuffix(strings.TrimPrefix(p, "./"), "/...")
			first, _, nested := strings.Cut(p, "/")
			if !nested {
				continue
			}
			if _, ok := inRepo(first); !ok {
				continue
			}
			if _, ok := inRepo(p); !ok {
				t.Errorf("%s:%d: `%s` names no file or directory of the repository (looked up from the root and from internal/)", doc, lineOf(text, m[0]), text[m[2]:m[3]])
			}
		}
	}
}

// TestGoLineCitationsResolve: every file.go:N (or file.go:N–M) citation in
// DESIGN.md, README.md and EXPERIMENTS.md, fenced transcripts included,
// names one Go file of the repository — by its path from the root or from
// internal/, or by a base name no other Go file shares — and lines inside
// it.
func TestGoLineCitationsResolve(t *testing.T) {
	byBase := map[string][]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			byBase[d.Name()] = append(byBase[d.Name()], path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cite := regexp.MustCompile(`([\w./-]*\w\.go):(\d+)(?:[–-](\d+))?`)
	for _, doc := range citingDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, m := range cite.FindAllStringSubmatchIndex(text, -1) {
			name, at := text[m[2]:m[3]], fmt.Sprintf("%s:%d: %s", doc, lineOf(text, m[0]), text[m[0]:m[1]])
			var file string
			if strings.Contains(name, "/") {
				f, ok := inRepo(name)
				if !ok {
					t.Errorf("%s names no Go file of the repository", at)
					continue
				}
				file = f
			} else if files := byBase[name]; len(files) == 1 {
				file = files[0]
			} else {
				t.Errorf("%s: %d Go files are named %s (%v); cite it by its path", at, len(files), name, files)
				continue
			}
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Count(string(src), "\n")
			last := text[m[4]:m[5]]
			if m[6] >= 0 {
				last = text[m[6]:m[7]]
			}
			first, _ := strconv.Atoi(text[m[4]:m[5]])
			end, _ := strconv.Atoi(last)
			if first < 1 || end < first || end > lines {
				t.Errorf("%s: %s has %d lines", at, file, lines)
			}
		}
	}
}

// goTree is what a backticked Go name is resolved against: the top-level
// names of every package of the repository by package name, and the type
// names, with each type's methods, fields and embedded types, whatever
// package declares it.
type goTree struct {
	pkgs    map[string]map[string]bool
	types   map[string]bool
	members map[string]map[string]bool
	embeds  map[string][]string
}

// parseGoTree parses every Go file of the repository outside testdata/
// (test files included: a document may cite a test helper).
func parseGoTree(t *testing.T) *goTree {
	t.Helper()
	tree := &goTree{pkgs: map[string]map[string]bool{}, types: map[string]bool{}, members: map[string]map[string]bool{}, embeds: map[string][]string{}}
	add := func(m map[string]map[string]bool, k, name string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		m[k][name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(tree.pkgs, pkg, decl.Name.Name)
				} else {
					add(tree.members, typeName(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							add(tree.pkgs, pkg, n.Name)
						}
					case *ast.TypeSpec:
						name := spec.Name.Name
						add(tree.pkgs, pkg, name)
						tree.types[name] = true
						var fields *ast.FieldList
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields
						case *ast.InterfaceType:
							fields = typ.Methods
						}
						if fields == nil {
							continue
						}
						for _, fl := range fields.List {
							if len(fl.Names) == 0 {
								tree.embeds[name] = append(tree.embeds[name], typeName(fl.Type))
							}
							for _, n := range fl.Names {
								add(tree.members, name, n.Name)
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// typeName is the name of the type a receiver or an embedded field names,
// without its pointer, package or type arguments.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// hasMember reports whether type typ, or a type it embeds, has a method or
// field called name.
func (tr *goTree) hasMember(typ, name string, seen map[string]bool) bool {
	if tr.members[typ][name] {
		return true
	}
	seen[typ] = true
	for _, e := range tr.embeds[typ] {
		if !seen[e] && tr.hasMember(e, name, seen) {
			return true
		}
	}
	return false
}

// fileExts end a span that is a file name (`pool.go`, `BENCH_e1.json`).
var fileExts = map[string]bool{"go": true, "md": true, "json": true, "jsonl": true, "golden": true, "txt": true, "yml": true, "mod": true, "script": true}

// metricKey matches what is written in lowercase and dots only: a metric,
// span kind, trace event or spec field (`sim.loop.events_dispatched`,
// `link.up`, `traffic.drain`), never a Go name of the repository that a
// document cites (those have a capital: `Host.hops`, `stack.NewHost`).
var metricKey = regexp.MustCompile(`^[a-z0-9_.]+$`)

// TestGoNamesResolve: every backticked Go name in DESIGN.md, README.md and
// EXPERIMENTS.md — `pkg.Ident` and `pkg.Type.Member` for a package of the
// repository, `Type.Member` for a type it declares — names something the
// tree declares. A span is such a name when, past a `(*T)` receiver and
// before its first call or type argument, it is a dotted chain of
// identifiers (`ip.PoolFor`, `(*Lists).Put`, `sim.RecordsOf[T](loop)`,
// `Host.hops`); a chain whose head is neither a package of the repository
// nor a capitalized name (`h.pkts`, `time.Now`) is a local or the standard
// library's and is skipped, and so are a file name and a metric key.
func TestGoNamesResolve(t *testing.T) {
	tree := parseGoTree(t)
	span := regexp.MustCompile("`([^`\n]+)`")
	recv := regexp.MustCompile(`^\(\*?(\w+)\)`)
	chain := regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)+$`)
	for _, doc := range citingDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := withoutFences(string(data))
		for _, m := range span.FindAllStringSubmatchIndex(text, -1) {
			s := recv.ReplaceAllString(text[m[2]:m[3]], "$1")
			if i := strings.IndexAny(s, "(["); i >= 0 {
				s = s[:i]
			}
			if !chain.MatchString(s) {
				continue
			}
			parts := strings.Split(s, ".")
			if fileExts[parts[len(parts)-1]] || metricKey.MatchString(s) {
				continue
			}
			at := fmt.Sprintf("%s:%d: `%s`", doc, lineOf(text, m[0]), text[m[2]:m[3]])
			head, name := parts[0], parts[1]
			switch names := tree.pkgs[head]; {
			case names != nil && head != "main":
				if !names[name] {
					t.Errorf("%s: package %s declares no %s", at, head, name)
				} else if len(parts) > 2 && !tree.hasMember(name, parts[2], map[string]bool{}) {
					t.Errorf("%s: %s.%s has no method or field %s", at, head, name, parts[2])
				}
			case tree.types[head]:
				if !tree.hasMember(head, name, map[string]bool{}) {
					t.Errorf("%s: type %s has no method or field %s", at, head, name)
				}
			case unicode.IsUpper(rune(head[0])):
				t.Errorf("%s: no package of the repository declares a type %s", at, head)
			}
		}
	}
}

package mosquitonet

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
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

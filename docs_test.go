package mosquitonet

import (
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

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
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
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

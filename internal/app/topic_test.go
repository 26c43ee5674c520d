package app

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestValidFilter(t *testing.T) {
	valid := []string{"a", "a/b", "+", "#", "a/+/c", "a/b/#", "+/+", "a//b"}
	invalid := []string{"", "a/#/b", "a+", "a#", "a/b+", "#/a"}
	for _, f := range valid {
		if !ValidFilter(f) {
			t.Errorf("ValidFilter(%q) = false", f)
		}
	}
	for _, f := range invalid {
		if ValidFilter(f) {
			t.Errorf("ValidFilter(%q) = true", f)
		}
	}
	if !ValidTopic("a/b/c") || ValidTopic("") || ValidTopic("a/+") || ValidTopic("a/#") {
		t.Error("ValidTopic misclassifies")
	}
}

func TestMatchFilter(t *testing.T) {
	cases := []struct {
		filter, topic string
		want          bool
	}{
		{"a/b", "a/b", true},
		{"a/b", "a/c", false},
		{"a/+", "a/b", true},
		{"a/+", "a/b/c", false},
		{"a/#", "a/b/c", true},
		{"a/#", "a", true}, // "#" matches zero remaining levels
		{"#", "x/y/z", true},
		{"+/b", "a/b", true},
		{"a/b", "a/b/c", false},
		{"a/b/c", "a/b", false},
	}
	for _, c := range cases {
		if got := MatchFilter(c.filter, c.topic); got != c.want {
			t.Errorf("MatchFilter(%q, %q) = %v, want %v", c.filter, c.topic, got, c.want)
		}
	}
}

func TestTopicTreeMatchOrder(t *testing.T) {
	var tree TopicTree[string]
	tree.Subscribe("s/temp", 1, "exact")
	tree.Subscribe("s/+", 2, "plus")
	tree.Subscribe("s/#", 3, "hash")
	tree.Subscribe("other", 4, "other")

	got := tree.Match("s/temp")
	want := []string{"exact", "plus", "hash"} // trie order: exact, "+", "#"
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Match = %v, want %v", got, want)
	}
	if got := tree.Match("s"); !reflect.DeepEqual(got, []string{"hash"}) {
		t.Fatalf("Match(s) = %v, want [hash] (# matches zero levels)", got)
	}
	if got := tree.Match("nomatch"); len(got) != 0 {
		t.Fatalf("Match(nomatch) = %v", got)
	}
}

func TestTopicTreeUnsubscribe(t *testing.T) {
	var tree TopicTree[int]
	tree.Subscribe("a/+", 1, 100)
	tree.Subscribe("a/+", 2, 200)
	tree.Unsubscribe("a/+", 1)
	if got := tree.Match("a/x"); !reflect.DeepEqual(got, []int{200}) {
		t.Fatalf("after unsubscribe: %v", got)
	}
	tree.Unsubscribe("never/registered", 9) // no-op on unknown filter
}

func TestRetained(t *testing.T) {
	var tree TopicTree[int]
	tree.SetRetained("s/b/temp", []byte("2"))
	tree.SetRetained("s/a/temp", []byte("1"))
	tree.SetRetained("s/a/hum", []byte("h"))

	got := tree.Retained("s/+/temp")
	if len(got) != 2 || got[0].Topic != "s/a/temp" || got[1].Topic != "s/b/temp" {
		t.Fatalf("Retained(s/+/temp) = %v", got)
	}
	all := tree.Retained("#")
	if len(all) != 3 || all[0].Topic != "s/a/hum" || all[1].Topic != "s/a/temp" || all[2].Topic != "s/b/temp" {
		t.Fatalf("Retained(#) not in lexicographic order: %v", all)
	}
	// Empty payload clears, per MQTT convention.
	tree.SetRetained("s/a/temp", nil)
	if got := tree.Retained("s/a/temp"); len(got) != 0 {
		t.Fatalf("cleared retained still present: %v", got)
	}
}

// The Split-based matchers the level walk replaced, kept as its oracle.
func refValidFilter(filter string) bool {
	if filter == "" {
		return false
	}
	levels := SplitTopic(filter)
	for i, l := range levels {
		if strings.ContainsAny(l, "+#") && len(l) != 1 {
			return false
		}
		if l == "#" && i != len(levels)-1 {
			return false
		}
	}
	return true
}

func refMatchFilter(filter, topic string) bool {
	fl, tl := SplitTopic(filter), SplitTopic(topic)
	for i, f := range fl {
		if f == "#" {
			return true
		}
		if i >= len(tl) {
			return false
		}
		if f != "+" && f != tl[i] {
			return false
		}
	}
	return len(fl) == len(tl)
}

func refTreeMatch(n *topicNode[int], levels []string, out *[]int) {
	if len(levels) == 0 {
		for _, s := range n.subs {
			*out = append(*out, s.val)
		}
		if c := n.children["#"]; c != nil {
			for _, s := range c.subs {
				*out = append(*out, s.val)
			}
		}
		return
	}
	if c := n.children[levels[0]]; c != nil && levels[0] != "+" && levels[0] != "#" {
		refTreeMatch(c, levels[1:], out)
	}
	if c := n.children["+"]; c != nil {
		refTreeMatch(c, levels[1:], out)
	}
	if c := n.children["#"]; c != nil {
		for _, s := range c.subs {
			*out = append(*out, s.val)
		}
	}
}

// TestLevelWalkMatchesSplit: walking a topic's levels by index must agree
// with splitting it, for seeded random topics and filters over a small
// alphabet — empty levels, leading and trailing separators, "+" and "#" in
// and out of place, the empty string.
func TestLevelWalkMatchesSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	levels := []string{"a", "b", "cc", "", "+", "#", "a+", "#b"}
	random := func(wild bool) string {
		n := rng.Intn(5)
		parts := make([]string, n)
		for i := range parts {
			k := len(levels)
			if !wild {
				k = 4
			}
			parts[i] = levels[rng.Intn(k)]
		}
		return strings.Join(parts, "/")
	}
	var tree TopicTree[int]
	var filters []string
	for id := 0; id < 300; id++ {
		f := random(true)
		if got, want := ValidFilter(f), refValidFilter(f); got != want {
			t.Fatalf("ValidFilter(%q) = %v, split-based %v", f, got, want)
		}
		if ValidFilter(f) {
			tree.Subscribe(f, uint64(id), id)
			filters = append(filters, f)
		}
	}
	if len(filters) < 50 {
		t.Fatalf("only %d valid filters drawn", len(filters))
	}
	matched := 0
	for round := 0; round < 2000; round++ {
		topic := random(round%4 == 0) // mostly publishable topics, some with wildcards in them
		for _, f := range filters {
			if got, want := MatchFilter(f, topic), refMatchFilter(f, topic); got != want {
				t.Fatalf("MatchFilter(%q, %q) = %v, split-based %v", f, topic, got, want)
			}
		}
		var want []int
		refTreeMatch(&tree.root, SplitTopic(topic), &want)
		if got := tree.Match(topic); !reflect.DeepEqual(got, want) {
			t.Fatalf("Match(%q) = %v, split-based %v", topic, got, want)
		}
		matched += len(want)
	}
	if matched == 0 {
		t.Fatal("no topic matched any filter")
	}
}

// TestMatchDoesNotSplit: matching one topic against a filter, and a
// validity check, build no slice.
func TestMatchDoesNotSplit(t *testing.T) {
	ok := true
	allocs := testing.AllocsPerRun(100, func() {
		ok = ok && MatchFilter("sensors/+/temp/#", "sensors/mh1/temp/now") && ValidFilter("sensors/+/temp/#")
	})
	if allocs != 0 || !ok {
		t.Fatalf("MatchFilter+ValidFilter allocate %.1f times (ok=%v)", allocs, ok)
	}
}

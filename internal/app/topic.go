package app

import (
	"sort"
	"strings"
)

// TopicTree is an MQTT-style topic trie mapping subscription filters to
// values of type V and exact topics to retained payloads. Filters use "/"
// separated levels with two wildcards: "+" matches exactly one level,
// "#" (final level only) matches the remainder of the topic, including
// zero levels.
//
// Matching and retained-message enumeration are deterministic: Match
// visits exact children before "+" before "#", and subscriptions in
// registration order; Retained enumerates topics in lexicographic order.
type TopicTree[V any] struct {
	root topicNode[V]
}

type topicNode[V any] struct {
	children map[string]*topicNode[V]
	subs     []topicSub[V]
	retained []byte // nil when no retained message is stored at this topic
	hasRet   bool
}

type topicSub[V any] struct {
	id  uint64
	val V
}

// SplitTopic splits a topic into its levels. It is for the set-up paths
// (subscribe, retained store); matching walks levels with cutLevel and
// builds no slice.
func SplitTopic(topic string) []string { return strings.Split(topic, "/") }

// cutLevel cuts the first level off s and reports whether more follow:
// called until more is false it yields exactly SplitTopic(s), empty levels
// included.
func cutLevel(s string) (level, rest string, more bool) {
	if i := strings.IndexByte(s, '/'); i >= 0 {
		return s[:i], s[i+1:], true
	}
	return s, "", false
}

// ValidFilter reports whether a subscription filter is well-formed: no
// empty string, "+" only as a whole level, "#" only as the final level.
func ValidFilter(filter string) bool {
	if filter == "" {
		return false
	}
	for more := true; more; {
		var l string
		l, filter, more = cutLevel(filter)
		if strings.ContainsAny(l, "+#") && len(l) != 1 {
			return false
		}
		if l == "#" && more {
			return false
		}
	}
	return true
}

// ValidTopic reports whether a publish topic is well-formed: non-empty and
// wildcard-free.
func ValidTopic(topic string) bool {
	return topic != "" && !strings.ContainsAny(topic, "+#")
}

// Subscribe adds val under filter and returns a subscription id for
// Unsubscribe. Caller is responsible for filter validity.
func (t *TopicTree[V]) Subscribe(filter string, id uint64, val V) {
	n := &t.root
	for _, level := range SplitTopic(filter) {
		if n.children == nil {
			n.children = make(map[string]*topicNode[V])
		}
		c := n.children[level]
		if c == nil {
			c = &topicNode[V]{}
			n.children[level] = c
		}
		n = c
	}
	n.subs = append(n.subs, topicSub[V]{id: id, val: val})
}

// Unsubscribe removes every subscription under filter whose id matches.
func (t *TopicTree[V]) Unsubscribe(filter string, id uint64) {
	n := &t.root
	for _, level := range SplitTopic(filter) {
		c := n.children[level]
		if c == nil {
			return
		}
		n = c
	}
	kept := n.subs[:0]
	for _, s := range n.subs {
		if s.id != id {
			kept = append(kept, s)
		}
	}
	n.subs = kept
}

// Match returns the values of every subscription whose filter matches
// topic, in deterministic order (trie order: exact level, then "+", then
// "#"; registration order within a node). A subscriber registered under
// several matching filters appears once per filter — the broker's QoS
// merge is the caller's business.
func (t *TopicTree[V]) Match(topic string) []V {
	var out []V
	t.root.match(topic, true, &out)
	return out
}

// match descends with the levels of topic still to be matched: rest when
// more, none otherwise.
func (n *topicNode[V]) match(rest string, more bool, out *[]V) {
	if !more {
		for _, s := range n.subs {
			*out = append(*out, s.val)
		}
		// "a/b" also matches the filter "a/b/#" (zero remaining levels).
		if c := n.children["#"]; c != nil {
			for _, s := range c.subs {
				*out = append(*out, s.val)
			}
		}
		return
	}
	level, rest, more := cutLevel(rest)
	if c := n.children[level]; c != nil && level != "+" && level != "#" {
		c.match(rest, more, out)
	}
	if c := n.children["+"]; c != nil {
		c.match(rest, more, out)
	}
	if c := n.children["#"]; c != nil {
		for _, s := range c.subs {
			*out = append(*out, s.val)
		}
	}
}

// MatchFilter reports whether a single subscription filter matches a topic,
// without a tree — used for client-side dispatch of inbound publications.
func MatchFilter(filter, topic string) bool {
	fmore, tmore := true, true
	for fmore {
		var f, t string
		f, filter, fmore = cutLevel(filter)
		if f == "#" {
			return true
		}
		if !tmore {
			return false
		}
		t, topic, tmore = cutLevel(topic)
		if f != "+" && f != t {
			return false
		}
	}
	return !tmore
}

// SetRetained stores payload as topic's retained message; an empty payload
// clears it, per MQTT convention.
func (t *TopicTree[V]) SetRetained(topic string, payload []byte) {
	n := &t.root
	for _, level := range SplitTopic(topic) {
		if n.children == nil {
			n.children = make(map[string]*topicNode[V])
		}
		c := n.children[level]
		if c == nil {
			c = &topicNode[V]{}
			n.children[level] = c
		}
		n = c
	}
	if len(payload) == 0 {
		n.retained, n.hasRet = nil, false
		return
	}
	n.retained = append([]byte(nil), payload...)
	n.hasRet = true
}

// RetainedMessage is one stored retained message.
type RetainedMessage struct {
	Topic   string
	Payload []byte
}

// Retained returns every retained message whose topic matches filter, in
// lexicographic topic order.
func (t *TopicTree[V]) Retained(filter string) []RetainedMessage {
	var out []RetainedMessage
	t.root.retainedMatching(SplitTopic(filter), "", &out)
	sort.Slice(out, func(i, j int) bool { return out[i].Topic < out[j].Topic })
	return out
}

func (n *topicNode[V]) retainedMatching(filter []string, prefix string, out *[]RetainedMessage) {
	if len(filter) == 0 {
		if n.hasRet {
			*out = append(*out, RetainedMessage{Topic: prefix, Payload: append([]byte(nil), n.retained...)})
		}
		return
	}
	join := func(level string) string {
		if prefix == "" {
			return level
		}
		return prefix + "/" + level
	}
	switch filter[0] {
	case "#":
		n.collectRetained(prefix, out)
	case "+":
		keys := make([]string, 0, len(n.children))
		for k := range n.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			n.children[k].retainedMatching(filter[1:], join(k), out)
		}
	default:
		if c := n.children[filter[0]]; c != nil {
			c.retainedMatching(filter[1:], join(filter[0]), out)
		}
	}
}

// collectRetained gathers every retained message in the subtree.
func (n *topicNode[V]) collectRetained(prefix string, out *[]RetainedMessage) {
	if n.hasRet {
		*out = append(*out, RetainedMessage{Topic: prefix, Payload: append([]byte(nil), n.retained...)})
	}
	keys := make([]string, 0, len(n.children))
	for k := range n.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p := k
		if prefix != "" {
			p = prefix + "/" + k
		}
		n.children[k].collectRetained(p, out)
	}
}

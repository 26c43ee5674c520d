package app

import (
	"reflect"
	"testing"
)

func TestValidTopic(t *testing.T) {
	valid := []string{"a", "a/b", "a//b", "/a", "a/"}
	invalid := []string{"", "+", "#", "a/+", "a/#", "a/+/c", "a+", "#b"}
	for _, topic := range valid {
		if !ValidTopic(topic) {
			t.Errorf("ValidTopic(%q) = false", topic)
		}
	}
	for _, topic := range invalid {
		if ValidTopic(topic) {
			t.Errorf("ValidTopic(%q) = true", topic)
		}
	}
}

// TestTopicTreeMatchOrder: a topic's subscriptions come back in
// registration order, one per session; a repeated subscription keeps its
// place and takes the new QoS. (The topic tree is an exact index now.)
func TestTopicTreeMatchOrder(t *testing.T) {
	idx := make(topicIndex)
	s1, s2, s3 := &brokerSession{}, &brokerSession{}, &brokerSession{}
	for _, s := range []*brokerSession{s1, s2, s3} {
		if !idx.subscribe("s/temp", s, 1) {
			t.Fatal("first subscription reported as repeated")
		}
	}
	idx.subscribe("other", s2, 1)
	if idx.subscribe("s/temp", s2, 0) {
		t.Fatal("repeated subscription reported as new")
	}
	want := []brokerSub{{s1, 1}, {s2, 0}, {s3, 1}}
	if got := idx["s/temp"].subs; !reflect.DeepEqual(got, want) {
		t.Fatalf("subs = %v, want %v", got, want)
	}
	if idx["s"] != nil || idx["s/temp/now"] != nil {
		t.Fatal("a topic nobody named has an entry")
	}
}

// TestTopicTreeUnsubscribe: a leaving session's subscription goes, and a
// slice route is still ranging over keeps what it held.
func TestTopicTreeUnsubscribe(t *testing.T) {
	idx := make(topicIndex)
	s1, s2 := &brokerSession{}, &brokerSession{}
	idx.subscribe("a/x", s1, 0)
	idx.subscribe("a/x", s2, 1)
	ranging := idx["a/x"].subs
	idx.unsubscribe("a/x", s1)
	if got, want := idx["a/x"].subs, []brokerSub{{s2, 1}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after unsubscribe: %v, want %v", got, want)
	}
	if want := []brokerSub{{s1, 0}, {s2, 1}}; !reflect.DeepEqual(ranging, want) {
		t.Fatalf("unsubscribe edited the slice route ranges over: %v", ranging)
	}
}

func TestRetained(t *testing.T) {
	idx := make(topicIndex)
	payload := []byte("1")
	idx.setRetained("s/a/temp", payload)
	payload[0] = '9'
	if got := string(idx["s/a/temp"].retained); got != "1" {
		t.Fatalf("retained = %q, want a copy of %q", got, "1")
	}
	idx.setRetained("s/a/temp", []byte("2"))
	if got := string(idx["s/a/temp"].retained); got != "2" {
		t.Fatalf("retained = %q after a replacement", got)
	}
	// Empty payload clears, per MQTT convention.
	idx.setRetained("s/a/temp", nil)
	if got := idx["s/a/temp"].retained; got != nil {
		t.Fatalf("cleared retained still present: %q", got)
	}
}

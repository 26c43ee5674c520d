package app

import (
	"slices"
	"strings"
)

// ValidTopic reports whether a topic is well-formed: non-empty and free of
// MQTT's "+" and "#" wildcards. Topics are exact — a subscription names one
// topic, as a publication does — so the one test serves both.
func ValidTopic(topic string) bool {
	return topic != "" && !strings.ContainsAny(topic, "+#")
}

// topicIndex maps each topic to its subscriptions and its retained message.
// Topics are exact, so a publication finds its subscribers with one lookup.
type topicIndex map[string]*topicEntry

// topicEntry is one topic's state. subs is in registration order, one entry
// per session; a leaving session swaps in a new slice instead of compacting
// this one, because route ranges over it while a delivery may close a
// session.
type topicEntry struct {
	subs     []brokerSub
	retained []byte // nil when the topic has no retained message
}

// brokerSub is one session's subscription to a topic.
type brokerSub struct {
	sess *brokerSession
	qos  byte
}

func (idx topicIndex) entry(topic string) *topicEntry {
	e := idx[topic]
	if e == nil {
		e = &topicEntry{}
		idx[topic] = e
	}
	return e
}

// subscribe adds sess's subscription to topic at qos and reports whether it
// is new. A repeated one replaces the old in place with the new QoS, per
// MQTT 3.1.1 §3.8.4, so the session still gets each publication once.
func (idx topicIndex) subscribe(topic string, sess *brokerSession, qos byte) bool {
	e := idx.entry(topic)
	for i := range e.subs {
		if e.subs[i].sess == sess {
			e.subs[i].qos = qos
			return false
		}
	}
	e.subs = append(e.subs, brokerSub{sess: sess, qos: qos})
	return true
}

// unsubscribe removes sess's subscription to topic.
func (idx topicIndex) unsubscribe(topic string, sess *brokerSession) {
	e := idx[topic]
	e.subs = slices.DeleteFunc(slices.Clone(e.subs), func(s brokerSub) bool { return s.sess == sess })
}

// setRetained stores a copy of payload as topic's retained message; an empty
// payload clears it, per MQTT convention.
func (idx topicIndex) setRetained(topic string, payload []byte) {
	e := idx.entry(topic)
	e.retained = nil
	if len(payload) > 0 {
		e.retained = append([]byte(nil), payload...)
	}
}

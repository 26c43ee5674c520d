// Package analysis registers the mnetlint analyzer suite: the mechanical
// enforcement of the simulator's determinism and accounting invariants.
// See DESIGN.md §5 for the invariant each analyzer guards and the
// //lint:allow escape-hatch policy.
package analysis

import (
	"mosquitonet/internal/analysis/bufownership"
	"mosquitonet/internal/analysis/dropaccounting"
	"mosquitonet/internal/analysis/framework"
	"mosquitonet/internal/analysis/hookorder"
	"mosquitonet/internal/analysis/nosharedstate"
	"mosquitonet/internal/analysis/nowallclock"
	"mosquitonet/internal/analysis/seededrand"
	"mosquitonet/internal/analysis/sortedrange"
	"mosquitonet/internal/analysis/tracekinds"
	"mosquitonet/internal/analysis/wireroundtrip"
)

// All returns the full suite in a stable order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		nowallclock.Analyzer,
		seededrand.Analyzer,
		nosharedstate.Analyzer,
		sortedrange.Analyzer,
		dropaccounting.Analyzer,
		wireroundtrip.Analyzer,
		hookorder.Analyzer,
		tracekinds.Analyzer,
		bufownership.Analyzer,
	}
}

package testbed

import (
	"encoding/json"
	"fmt"
	"io"

	"mosquitonet/internal/metrics"
	"mosquitonet/internal/trace"
)

// Export is the machine-readable record of one experiment run: the seed
// (sufficient to reproduce it bit-for-bit), one metrics snapshot per
// scenario the experiment executed, and — where the experiment is about a
// protocol timeline — the trace events of its final iteration. The
// experiments command serializes one Export per experiment as
// BENCH_<name>.json.
type Export struct {
	Experiment string              `json:"experiment"`
	Seed       int64               `json:"seed"`
	Snapshots  []*metrics.Snapshot `json:"snapshots"`
	Timeline   []trace.Event       `json:"timeline,omitempty"`

	// Rows carries an experiment's own result table (e.g. the scale
	// experiment's per-fleet rows) when the metrics snapshots alone do
	// not tell the story. Struct-typed values marshal with a fixed field
	// order, keeping the export deterministic.
	Rows any `json:"rows,omitempty"`
}

// Artifact is one file an experiment run exports.
type Artifact struct {
	Name  string // file name under the export directory
	Write func(io.Writer) error
}

// Result is what every experiment driver returns: String() prints the
// table in the paper's presentation, Artifacts lists the files to export.
type Result interface {
	fmt.Stringer
	Artifacts() []Artifact
}

// Artifacts is the default export list: the one BENCH_<experiment>.json.
// Every result type embeds its *Export and so inherits it; F7 and the
// handoff observatory append their extra files.
func (e *Export) Artifacts() []Artifact {
	return []Artifact{{Name: "BENCH_" + e.Experiment + ".json", Write: e.WriteJSON}}
}

// WriteJSON writes the export as indented JSON. Because snapshots order
// metrics deterministically and the simulation never consults the wall
// clock, two same-seed runs produce byte-identical output.
func (e *Export) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// SnapshotMetrics captures the testbed's registry under a scenario name.
func (tb *Testbed) SnapshotMetrics(name string) *metrics.Snapshot {
	s := tb.Metrics.Snapshot()
	s.Name = name
	return s
}

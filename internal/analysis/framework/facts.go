package framework

// Cross-package facts, mirroring golang.org/x/tools' analysis.Fact: an
// analyzer running on package P may attach typed facts to P's objects
// (functions, variables, struct fields); when the same analyzer later runs
// on a package importing P, it reads those facts back and reasons about
// calls across the boundary without re-analyzing P's sources.
//
// Everything is in-process — the Loader memoizes facts alongside type
// info, keyed by the types.Object identity its shared FileSet guarantees —
// so no gob encoding is needed. The price of the simpler model is that an
// analyzer with FactTypes must see its dependencies analyzed first; the
// Loader arranges exactly that (see runWithDeps in load.go).

import (
	"fmt"
	"go/types"
	"reflect"
	"sort"
)

// Fact is a typed datum an analyzer attaches to an object in one package
// and reads back from importing packages. Implementations must be pointer
// types (so ImportObjectFact can fill a caller-provided value).
type Fact interface {
	// AFact marks the type as a fact; it is never called.
	AFact()
}

// ObjectFact pairs an object with one fact attached to it.
type ObjectFact struct {
	Obj  types.Object
	Fact Fact
}

// factKey identifies one fact slot: analyzer × object × fact type.
type factKey struct {
	analyzer string
	obj      types.Object
	t        reflect.Type
}

// factStore holds every fact exported during a Loader's lifetime.
type factStore struct {
	m map[factKey]Fact
}

func newFactStore() *factStore { return &factStore{m: make(map[factKey]Fact)} }

func (s *factStore) set(k factKey, f Fact) { s.m[k] = f }

func (s *factStore) get(k factKey) (Fact, bool) {
	f, ok := s.m[k]
	return f, ok
}

// factStoreFor returns the store shared through the loader, or a
// package-local fallback for hand-constructed Packages in tests.
func (pkg *Package) factStoreFor() *factStore {
	if pkg.loader != nil {
		return pkg.loader.facts
	}
	if pkg.localFacts == nil {
		pkg.localFacts = newFactStore()
	}
	return pkg.localFacts
}

// ExportObjectFact attaches fact to obj for this pass's analyzer. The
// analyzer must declare the fact's type in its FactTypes, and fact must be
// a pointer. Exporting twice for the same (object, type) overwrites.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil {
		panic("ExportObjectFact: nil object")
	}
	p.checkFactType(fact)
	p.pkg.factStoreFor().set(factKey{analyzer: p.Analyzer.Name, obj: obj, t: reflect.TypeOf(fact)}, fact)
}

// ImportObjectFact copies the fact of ptr's type attached to obj (by this
// analyzer, in this or any already-analyzed package) into *ptr, reporting
// whether one existed.
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	if obj == nil {
		return false
	}
	p.checkFactType(ptr)
	f, ok := p.pkg.factStoreFor().get(factKey{analyzer: p.Analyzer.Name, obj: obj, t: reflect.TypeOf(ptr)})
	if !ok {
		return false
	}
	reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(f).Elem())
	return true
}

// ObjectFacts returns every object fact the named analyzer exported
// through this loader, sorted by object position — the hook analysistest
// uses to check a fixture's "// want fact:" assertions.
func (l *Loader) ObjectFacts(analyzer string) []ObjectFact {
	var out []ObjectFact
	for k, f := range l.facts.m {
		if k.analyzer == analyzer {
			out = append(out, ObjectFact{Obj: k.obj, Fact: f})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Obj.Pos() != out[j].Obj.Pos() {
			return out[i].Obj.Pos() < out[j].Obj.Pos()
		}
		return out[i].Obj.Name() < out[j].Obj.Name()
	})
	return out
}

// checkFactType enforces the FactTypes declaration contract: an analyzer
// may only traffic in fact types it registered, and facts must be
// pointers (so import can fill them in place).
func (p *Pass) checkFactType(fact Fact) {
	t := reflect.TypeOf(fact)
	if t == nil || t.Kind() != reflect.Pointer {
		panic(fmt.Sprintf("%s: fact %T must be a pointer type", p.Analyzer.Name, fact))
	}
	for _, ft := range p.Analyzer.FactTypes {
		if reflect.TypeOf(ft) == t {
			return
		}
	}
	panic(fmt.Sprintf("%s: fact type %T not declared in FactTypes", p.Analyzer.Name, fact))
}

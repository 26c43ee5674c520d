// Package bufownership is a borrow-checker-style dataflow pass over the
// pooled-buffer contract of DESIGN.md §6: every buffer obtained from
// internal/bufpool is owned by exactly one party at a time, must be
// recycled (bufpool.Put) or ownership-transferred exactly once, and must
// not be touched after either; frame payloads delivered by the link layer
// are borrowed for the synchronous delivery chain only and must never be
// retained or recycled by a receiver. The same goes for a parameter under a
// borrows contract — the chunk transport.Conn.OnData lends its consumer, the
// Payload of an app.Message or the Body of an app.HTTPRequest lent to a
// handler — inside the annotated function, or inside a func literal assigned
// to the annotated func field.
//
// The same rules carry a pooled *ip.Packet (DESIGN.md §6, "who owns a
// packet"). A packet is an abstract buffer like any other: a returns-pooled
// constructor makes one, a method under the releases contract (Packet.
// Release) recycles its receiver, Host.Output and the other takes-annotated
// entry points transfer it, and a handler bound to a borrows contract on its
// func type (stack.ProtocolHandler) may read it and nothing else.
//
// Unlike the suite's other analyzers this one is not an AST pattern
// matcher: it builds the framework's control-flow graph for every function
// body and runs a forward may-analysis tracking abstract buffers — one per
// creation site — through assignments, aliases (ip.Packet.MarshalInto
// returns its argument), calls, stores, closures, and defers. On top of
// the intraprocedural engine it uses cross-package facts: ownership
// contracts are declared as
//
//	//mnet:ownership takes <param>        ownership of <param>'s buffer
//	                                      transfers to this function
//	//mnet:ownership borrows <param>      documented borrow-only use
//	//mnet:ownership returns-pooled       result 0 is a pooled buffer the
//	                                      caller owns
//	//mnet:ownership returns-alias <param> result 0 aliases <param>
//	//mnet:ownership releases             the method recycles its receiver
//
// on function declarations, func-typed struct fields/variables or named
// func types (the contract then binds every function used as that type), and
// exported as OwnershipFacts that importing packages' passes consume —
// so internal/stack's send path is checked against the contracts declared
// in internal/arp and internal/link without any cross-package AST walk.
//
// Diagnostics:
//
//   - use of a buffer after bufpool.Put (use-after-recycle)
//   - use of a buffer after its ownership was transferred
//   - double recycle (two Puts on one path)
//   - recycle after transfer (Put on a buffer someone else now owns)
//   - leak at a terminal: a path reaches return without Put or transfer
//     (the §6 "return it to the pool at every terminal" rule). Not applied
//     to the first result of a multi-result source — a constructor's
//     (packet, error) or (packet, ok) carries nil on its failure path, and
//     the graph has no branch conditions to tell the paths apart; the
//     run-time pool balance covers those
//   - retention of a borrowed frame payload or parameter: stored into a
//     field, global or aggregate, captured by a closure, recycled, or
//     passed to an ownership-taking callee (reading it, append(dst, b...)
//     and passing it to a callee that takes nothing are fine)
package bufownership

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"

	"mosquitonet/internal/analysis/framework"
)

// Analyzer implements the check.
var Analyzer = &framework.Analyzer{
	Name:      "bufownership",
	Doc:       "pooled buffers are recycled or ownership-transferred exactly once on every path; borrowed frame payloads are never retained",
	Run:       run,
	FactTypes: []framework.Fact{(*OwnershipFact)(nil)},
}

// OwnershipFact is the buffer-ownership contract of one function (or
// func-typed field/variable), seeded from //mnet:ownership annotations.
type OwnershipFact struct {
	// Takes lists parameter indices whose buffer ownership transfers to
	// the callee (for a *Frame parameter: the frame's payload).
	Takes []int
	// Borrows lists parameter indices documented as borrow-only.
	Borrows []int
	// ReturnsPooled marks result 0 as a pooled buffer the caller owns.
	ReturnsPooled bool
	// AliasReturn is the parameter index result 0 aliases, or -1.
	AliasReturn int
	// Releases marks a method that recycles its receiver.
	Releases bool
}

// AFact marks OwnershipFact as a framework fact.
func (*OwnershipFact) AFact() {}

func (f *OwnershipFact) String() string {
	var parts []string
	if len(f.Takes) > 0 {
		parts = append(parts, fmt.Sprintf("takes=%v", f.Takes))
	}
	if len(f.Borrows) > 0 {
		parts = append(parts, fmt.Sprintf("borrows=%v", f.Borrows))
	}
	if f.ReturnsPooled {
		parts = append(parts, "returns-pooled")
	}
	if f.AliasReturn >= 0 {
		parts = append(parts, fmt.Sprintf("alias=%d", f.AliasReturn))
	}
	if f.Releases {
		parts = append(parts, "releases")
	}
	return "ownership(" + strings.Join(parts, " ") + ")"
}

const directive = "//mnet:ownership"

// status is the may-set of ownership states an abstract buffer can be in
// at a program point.
type status uint8

const (
	stOwned status = 1 << iota
	stRecycled
	stTransferred
	stBorrowed
)

// bufInfo describes one abstract buffer: a creation site plus how the
// buffer entered the function.
type bufInfo struct {
	pos      token.Pos
	desc     string
	borrowed bool // borrowed frame payload: retention rules apply
	owned    bool // owned pooled buffer: leak rules apply
}

// state is the dataflow fact: which buffers each local may refer to, and
// the may-status of each buffer.
type state struct {
	vars map[types.Object][]token.Pos
	bufs map[token.Pos]status
}

func newState() state {
	return state{vars: make(map[types.Object][]token.Pos), bufs: make(map[token.Pos]status)}
}

func (s state) clone() state {
	n := state{
		vars: make(map[types.Object][]token.Pos, len(s.vars)),
		bufs: make(map[token.Pos]status, len(s.bufs)),
	}
	for k, v := range s.vars {
		cp := make([]token.Pos, len(v))
		copy(cp, v)
		n.vars[k] = cp
	}
	for k, v := range s.bufs {
		n.bufs[k] = v
	}
	return n
}

func joinStates(a, b state) state {
	out := a.clone()
	for k, v := range b.vars {
		out.vars[k] = unionPos(out.vars[k], v)
	}
	for k, v := range b.bufs {
		out.bufs[k] |= v
	}
	return out
}

func unionPos(a, b []token.Pos) []token.Pos {
	seen := make(map[token.Pos]bool, len(a)+len(b))
	var out []token.Pos
	for _, p := range a {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, p := range b {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func run(pass *framework.Pass) error {
	a := &analyzer{pass: pass}
	for _, f := range pass.Files {
		a.exportAnnotations(f)
	}
	// contracts maps a function — a literal, or a declaration of this
	// package named as a value — to the contract of the place it is put: the
	// func-typed field or variable it is assigned to, or the named func type
	// of the parameter it is passed as (RegisterHandler's ProtocolHandler).
	// Its body is held to that contract.
	contracts := make(map[any]types.Object)
	bind := func(contract types.Object, value ast.Expr) {
		if contract == nil {
			return
		}
		if lit, ok := value.(*ast.FuncLit); ok {
			contracts[lit] = contract
		} else if fn, ok := a.exprObj(value).(*types.Func); ok && fn.Pkg() == pass.Pkg {
			contracts[fn] = contract
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if len(x.Lhs) == len(x.Rhs) {
					for i, r := range x.Rhs {
						bind(a.contractOf(x.Lhs[i]), r)
					}
				}
			case *ast.KeyValueExpr:
				bind(a.contractOf(x.Key), x.Value)
			case *ast.ValueSpec:
				if len(x.Names) == len(x.Values) {
					for i, v := range x.Values {
						bind(a.contractOf(x.Names[i]), v)
					}
				}
			case *ast.CallExpr:
				sig, _ := a.typeOf(x.Fun).(*types.Signature)
				for i, arg := range x.Args {
					if sig != nil && i < sig.Params().Len() {
						bind(a.typeContract(sig.Params().At(i).Type()), arg)
					}
				}
			}
			return true
		})
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Body != nil && !a.isFrameMethod(x) {
					obj := a.declObj(x.Name)
					if c := contracts[obj]; c != nil && !a.hasFact(obj) {
						obj = c
					}
					a.analyzeFunc(x.Type, x.Body, obj)
				}
			case *ast.FuncLit:
				a.analyzeFunc(x.Type, x.Body, contracts[x])
			}
			return true
		})
	}
	return nil
}

type analyzer struct {
	pass *framework.Pass
}

// declObj returns the defined object for a declaration name.
func (a *analyzer) declObj(id *ast.Ident) types.Object {
	if a.pass.TypesInfo == nil {
		return nil
	}
	return a.pass.TypesInfo.Defs[id]
}

// exprObj resolves a called function, an assignment target or a
// composite-literal key to the object it names, best effort.
func (a *analyzer) exprObj(e ast.Expr) types.Object {
	info := a.pass.TypesInfo
	if info == nil {
		return nil
	}
	switch x := e.(type) {
	case *ast.Ident:
		return info.Uses[x]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			return sel.Obj()
		}
		return info.Uses[x.Sel]
	}
	return nil
}

func (a *analyzer) typeOf(e ast.Expr) types.Type {
	if a.pass.TypesInfo == nil {
		return nil
	}
	return a.pass.TypesInfo.TypeOf(e)
}

func (a *analyzer) hasFact(obj types.Object) bool {
	var fact OwnershipFact
	return obj != nil && a.pass.ImportObjectFact(obj, &fact)
}

// typeContract returns the named func type t when it carries a contract.
func (a *analyzer) typeContract(t types.Type) types.Object {
	if named, ok := t.(*types.Named); ok && a.hasFact(named.Obj()) {
		return named.Obj()
	}
	return nil
}

// contractOf returns what carries the contract of the func-typed place e
// names: the field or variable itself, or failing that its named type.
func (a *analyzer) contractOf(e ast.Expr) types.Object {
	if obj := a.exprObj(e); a.hasFact(obj) {
		return obj
	}
	if t := a.typeOf(e); t != nil {
		return a.typeContract(t)
	}
	return nil
}

// isFrameMethod reports whether fn is a method on the Frame type itself —
// Frame's own methods manipulate their payload by design.
func (a *analyzer) isFrameMethod(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	return finalTypeName(fn.Recv.List[0].Type) == "Frame"
}

// ---- annotations → facts ----

// exportAnnotations walks declarations for //mnet:ownership directives and
// exports the resulting OwnershipFacts.
func (a *analyzer) exportAnnotations(f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if fact, ok := a.parseDirectives(d.Doc, d.Type.Params, d.Pos()); ok {
				if obj := a.declObj(d.Name); obj != nil {
					a.pass.ExportObjectFact(obj, fact)
				}
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if ft, ok := sp.Type.(*ast.FuncType); ok {
						doc := d.Doc
						if sp.Doc != nil {
							doc = sp.Doc
						}
						if fact, ok := a.parseDirectives(doc, ft.Params, sp.Pos()); ok {
							if obj := a.declObj(sp.Name); obj != nil {
								a.pass.ExportObjectFact(obj, fact)
							}
						}
						continue
					}
					st, ok := sp.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						ft, ok := field.Type.(*ast.FuncType)
						if !ok {
							continue
						}
						doc := field.Doc
						if doc == nil {
							doc = field.Comment
						}
						if fact, ok := a.parseDirectives(doc, ft.Params, field.Pos()); ok {
							for _, name := range field.Names {
								if obj := a.declObj(name); obj != nil {
									a.pass.ExportObjectFact(obj, fact)
								}
							}
						}
					}
				case *ast.ValueSpec:
					ft, ok := sp.Type.(*ast.FuncType)
					if !ok {
						continue
					}
					doc := d.Doc
					if sp.Doc != nil {
						doc = sp.Doc
					}
					if fact, ok := a.parseDirectives(doc, ft.Params, sp.Pos()); ok {
						for _, name := range sp.Names {
							if obj := a.declObj(name); obj != nil {
								a.pass.ExportObjectFact(obj, fact)
							}
						}
					}
				}
			}
		}
	}
}

// parseDirectives reads //mnet:ownership lines from a doc comment,
// resolving parameter names against params. Malformed directives are
// reported — a silently ignored contract is worse than none.
func (a *analyzer) parseDirectives(doc *ast.CommentGroup, params *ast.FieldList, at token.Pos) (*OwnershipFact, bool) {
	if doc == nil {
		return nil, false
	}
	fact := &OwnershipFact{AliasReturn: -1}
	found := false
	index := paramIndex(params)
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, directive)
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		bad := func(why string) {
			// Report on the annotated declaration, not the comment: wants in
			// fixtures (and humans reading diagnostics) look at the decl.
			a.pass.Reportf(at, "malformed %s directive: %s", directive, why)
		}
		if len(fields) == 0 {
			bad("missing verb (takes/borrows/returns-pooled/returns-alias/releases)")
			continue
		}
		switch fields[0] {
		case "takes", "borrows", "returns-alias":
			if len(fields) != 2 {
				bad(fields[0] + " needs exactly one parameter name")
				continue
			}
			idx, ok := index[fields[1]]
			if !ok {
				bad("no parameter named " + fields[1])
				continue
			}
			found = true
			switch fields[0] {
			case "takes":
				fact.Takes = append(fact.Takes, idx)
			case "borrows":
				fact.Borrows = append(fact.Borrows, idx)
			case "returns-alias":
				fact.AliasReturn = idx
			}
		case "returns-pooled", "releases":
			if len(fields) != 1 {
				bad(fields[0] + " takes no arguments")
				continue
			}
			found = true
			if fields[0] == "releases" {
				fact.Releases = true
			} else {
				fact.ReturnsPooled = true
			}
		default:
			bad("unknown verb " + fields[0])
		}
	}
	if !found {
		return nil, false
	}
	sort.Ints(fact.Takes)
	sort.Ints(fact.Borrows)
	return fact, true
}

// paramIndex maps parameter names to their flattened index.
func paramIndex(params *ast.FieldList) map[string]int {
	out := make(map[string]int)
	if params == nil {
		return out
	}
	i := 0
	for _, field := range params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			out[name.Name] = i
			i++
		}
	}
	return out
}

// finalTypeName returns the last identifier of a type expression.
func finalTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return finalTypeName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.Ident:
		return t.Name
	}
	return ""
}

// ---- per-function dataflow ----

// funcAnalysis is the per-function context: the buffer registry, the frame
// parameters whose payloads are borrowed, and report dedup.
type funcAnalysis struct {
	a           *analyzer
	bufs        map[token.Pos]*bufInfo
	frameParams map[types.Object]token.Pos
	reported    map[string]bool
}

func (a *analyzer) analyzeFunc(ftyp *ast.FuncType, body *ast.BlockStmt, obj types.Object) {
	fa := &funcAnalysis{
		a:           a,
		bufs:        make(map[token.Pos]*bufInfo),
		frameParams: make(map[types.Object]token.Pos),
		reported:    make(map[string]bool),
	}
	entry := fa.entryState(ftyp, obj)
	g := framework.BuildCFG(body)
	transfer := func(s state, n ast.Node) state {
		ns := s.clone()
		fa.apply(&ns, n, false)
		return ns
	}
	eq := func(a, b state) bool { return reflect.DeepEqual(a, b) }
	in := framework.Solve(g, entry, transfer, joinStates, eq)

	// Reporting pass: replay each reachable block once from its solved
	// in-state, emitting diagnostics this time.
	for _, blk := range g.Blocks {
		s, ok := in[blk]
		if !ok {
			continue
		}
		s = s.clone()
		for _, n := range blk.Nodes {
			fa.apply(&s, n, true)
		}
	}
	// Leak check at the function's normal terminal.
	if exit, ok := in[g.Exit]; ok {
		ids := make([]token.Pos, 0, len(exit.bufs))
		for id := range exit.bufs {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			info := fa.bufs[id]
			if info != nil && info.owned && exit.bufs[id]&stOwned != 0 {
				fa.report(info.pos, "pooled buffer (%s) may leak: a path reaches a terminal without bufpool.Put or an ownership transfer", info.desc)
			}
		}
	}
}

// entryState seeds the dataflow with the function's parameter contracts:
// takes-annotated parameters arrive owned, borrows-annotated ones borrowed,
// *Frame parameters carry a borrowed payload. obj is the function itself
// or, for a func literal, the func-typed field it is assigned to.
func (fa *funcAnalysis) entryState(ftyp *ast.FuncType, obj types.Object) state {
	s := newState()
	var fact OwnershipFact
	takes, borrows := map[int]bool{}, map[int]bool{}
	if obj != nil && fa.a.pass.ImportObjectFact(obj, &fact) {
		for _, i := range fact.Takes {
			takes[i] = true
		}
		for _, i := range fact.Borrows {
			borrows[i] = true
		}
	}
	if ftyp.Params == nil {
		return s
	}
	i := 0
	for _, field := range ftyp.Params.List {
		names := field.Names
		if len(names) == 0 {
			i++
			continue
		}
		for _, name := range names {
			pobj := fa.a.declObj(name)
			isFrame := finalTypeName(field.Type) == "Frame"
			switch {
			case takes[i] && isFrame:
				// Ownership of the frame's payload transfers in.
				if pobj != nil {
					id := name.Pos()
					fa.bufs[id] = &bufInfo{pos: id, desc: "payload of parameter " + name.Name, owned: true}
					fa.frameParams[pobj] = id
					s.bufs[id] = stOwned
				}
			case takes[i]:
				if pobj != nil {
					id := name.Pos()
					fa.bufs[id] = &bufInfo{pos: id, desc: "parameter " + name.Name, owned: true}
					s.vars[pobj] = []token.Pos{id}
					s.bufs[id] = stOwned
				}
			case isFrame || borrows[i] && hasLentField(pobj):
				// A frame, or a borrowed struct that carries its bytes the
				// same way (transport.Datagram, app.Message, app.HTTPRequest),
				// lends its Payload or Body; its other fields are values
				// copied out.
				if pobj != nil {
					id := name.Pos()
					fa.bufs[id] = &bufInfo{pos: id, desc: "borrowed frame payload (payload of frame " + name.Name + ")", borrowed: true}
					fa.frameParams[pobj] = id
					s.bufs[id] = stBorrowed
				}
			case borrows[i]:
				if pobj != nil {
					id := name.Pos()
					fa.bufs[id] = &bufInfo{pos: id, desc: "borrowed parameter " + name.Name, borrowed: true}
					s.vars[pobj] = []token.Pos{id}
					s.bufs[id] = stBorrowed
				}
			}
			i++
		}
	}
	return s
}

// isLentField reports whether name is a field through which a lent struct
// carries bytes that stay the lender's: a frame's, datagram's or message's
// Payload, an HTTP message's Body.
func isLentField(name string) bool { return name == "Payload" || name == "Body" }

// hasLentField reports whether obj is a struct value with such a field.
func hasLentField(obj types.Object) bool {
	if obj == nil {
		return false
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	for i := 0; ok && i < st.NumFields(); i++ {
		if isLentField(st.Field(i).Name()) {
			return true
		}
	}
	return false
}

// report emits a deduplicated diagnostic (the reporting pass replays the
// transfer function, so the same defect could otherwise fire per path).
func (fa *funcAnalysis) report(pos token.Pos, format string, args ...any) {
	key := fmt.Sprintf("%d:%s", pos, fmt.Sprintf(format, args...))
	if fa.reported[key] {
		return
	}
	fa.reported[key] = true
	fa.a.pass.Reportf(pos, format, args...)
}

// apply is the combined transfer function and (when emit) checker for one
// CFG node.
func (fa *funcAnalysis) apply(s *state, n ast.Node, emit bool) {
	switch x := n.(type) {
	case *ast.AssignStmt:
		fa.assign(s, x, emit)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var r ast.Expr
					if i < len(vs.Values) {
						r = vs.Values[i]
					}
					fa.assignOne(s, name, r, true, emit)
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			ids := fa.bufsOf(s, r)
			if ids == nil {
				fa.walk(s, r, emit)
				continue
			}
			// Returning a buffer transfers ownership to the caller.
			fa.setStatus(s, ids, stTransferred)
		}
	case *ast.DeferStmt:
		// Argument evaluation only; the call itself sits in the defers
		// block of the CFG.
		for _, arg := range x.Call.Args {
			if fa.bufsOf(s, arg) == nil {
				fa.walk(s, arg, emit)
			}
		}
	case *ast.RangeStmt:
		// The graph lists a range statement in its body block for the
		// key/value bindings, which bind no buffer; the operand and the
		// body's statements are nodes of their own.
	case ast.Expr:
		fa.walk(s, x, emit)
	case ast.Stmt:
		fa.walk(s, x, emit)
	}
}

// walk applies call/closure/use effects to every expression under n.
func (fa *funcAnalysis) walk(s *state, n ast.Node, emit bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			fa.call(s, x, emit)
			return false
		case *ast.FuncLit:
			fa.closure(s, x, emit)
			return false
		case *ast.Ident:
			fa.useCheck(s, x, emit)
		}
		return true
	})
}

// useCheck flags reads of buffers that are no longer this function's to
// touch.
func (fa *funcAnalysis) useCheck(s *state, id *ast.Ident, emit bool) {
	if !emit {
		return
	}
	obj := fa.identObj(id)
	if obj == nil {
		return
	}
	ids, ok := s.vars[obj]
	if !ok {
		return
	}
	for _, b := range ids {
		st := s.bufs[b]
		if st&stRecycled != 0 {
			fa.report(id.Pos(), "use of pooled buffer %s after recycle (bufpool.Put already ran on this path)", id.Name)
		} else if st&stTransferred != 0 {
			fa.report(id.Pos(), "use of pooled buffer %s after its ownership was transferred", id.Name)
		}
	}
}

func (fa *funcAnalysis) identObj(id *ast.Ident) types.Object {
	info := fa.a.pass.TypesInfo
	if info == nil {
		return nil
	}
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// bufsOf resolves an expression to the abstract buffers it may denote:
// tracked locals, slices/parens of them, and frame payload selectors.
func (fa *funcAnalysis) bufsOf(s *state, e ast.Expr) []token.Pos {
	switch x := e.(type) {
	case *ast.Ident:
		if obj := fa.identObj(x); obj != nil {
			if ids, ok := s.vars[obj]; ok {
				return ids
			}
		}
	case *ast.SelectorExpr:
		if base, ok := x.X.(*ast.Ident); ok {
			if obj := fa.identObj(base); obj != nil {
				if id, ok := fa.frameParams[obj]; ok && isLentField(x.Sel.Name) {
					return []token.Pos{id}
				}
			}
		}
	case *ast.SliceExpr:
		return fa.bufsOf(s, x.X)
	case *ast.ParenExpr:
		return fa.bufsOf(s, x.X)
	}
	return nil
}

// deepBufs finds every tracked buffer anywhere under e (inside composite
// literals, unary &, call arguments), for escape analysis. A call whose
// result cannot carry a buffer (len, string(b), bytes.Equal) hides its
// arguments, and append(dst, b...) copies b's elements: only dst is seen.
func (fa *funcAnalysis) deepBufs(s *state, e ast.Expr) []token.Pos {
	var out []token.Pos
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // closures handled by closure()
		case *ast.CallExpr:
			if info := fa.a.pass.TypesInfo; info != nil {
				if _, basic := info.TypeOf(x).(*types.Basic); basic {
					return false
				}
			}
			if fun, ok := fa.a.exprObj(x.Fun).(*types.Builtin); ok && fun.Name() == "append" && x.Ellipsis.IsValid() {
				out = append(out, fa.deepBufs(s, x.Args[0])...)
				return false
			}
			// A method of the buffer itself answers with a value of its own
			// (pkt.Clone()); a window into it is taken by slicing, which is
			// seen. Only the arguments can ride out in the result.
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && len(fa.bufsOf(s, sel.X)) > 0 {
				for _, arg := range x.Args {
					out = append(out, fa.deepBufs(s, arg)...)
				}
				return false
			}
		}
		if x, ok := n.(ast.Expr); ok {
			if ids := fa.bufsOf(s, x); len(ids) > 0 {
				out = append(out, ids...)
				return false
			}
			// pkt.Src is an address copied out of the packet, not the packet.
			if sel, ok := x.(*ast.SelectorExpr); ok && !carriesRef(fa.a.typeOf(sel)) {
				return false
			}
		}
		return true
	})
	return unionPos(out, nil)
}

// carriesRef reports whether a value of type t can hold a reference to
// memory someone else owns. Unknown types are assumed to.
func carriesRef(t types.Type) bool {
	if t == nil {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Array:
		return carriesRef(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if carriesRef(u.Field(i).Type()) {
				return true
			}
		}
		return false
	}
	return true
}

// setStatus strong-updates single-buffer sets and weak-updates may-alias
// sets (strong updates on a may-alias would erase the other alias's path).
//
// A borrowed buffer stays borrowed: recycling, transferring or retaining it
// is reported where it happens, and is not this function's to do, so later
// reads of it are not use-after-anything.
func (fa *funcAnalysis) setStatus(s *state, ids []token.Pos, st status) {
	for _, id := range ids {
		if info := fa.bufs[id]; info != nil && info.borrowed {
			continue
		}
		if len(ids) == 1 {
			s.bufs[id] = st
		} else {
			s.bufs[id] |= st
		}
	}
}

// call classifies one call expression and applies its ownership effects.
func (fa *funcAnalysis) call(s *state, call *ast.CallExpr, emit bool) {
	obj := fa.calleeObj(call)
	fact := fa.calleeFact(call)
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		// A releases method recycles its receiver (and reports a stale one
		// itself); any other call merely uses it (c.dev.Send's c.dev).
		if !fact.Releases || !fa.recycle(s, call, sel.X, calleeName(call), emit) {
			fa.walk(s, sel.X, emit)
		}
	}

	if isBufpool(obj, "Put") {
		for _, arg := range call.Args {
			if !fa.recycle(s, call, arg, "bufpool.Put", emit) {
				fa.walk(s, arg, emit)
			}
		}
		return
	}

	takes := map[int]bool{}
	for _, i := range fact.Takes {
		takes[i] = true
	}
	for i, arg := range call.Args {
		if takes[i] {
			ids := fa.deepBufs(s, arg)
			if len(ids) == 0 {
				// A frame handed on whole takes its payload with it.
				ids = fa.framePayload(arg)
			}
			if len(ids) == 0 {
				fa.walk(s, arg, emit)
				continue
			}
			if emit {
				for _, id := range ids {
					info, st := fa.bufs[id], s.bufs[id]
					switch {
					case info != nil && info.borrowed:
						fa.report(arg.Pos(), "ownership of %s passed to %s", info.desc, calleeName(call))
					case st&stRecycled != 0:
						fa.report(arg.Pos(), "use of pooled buffer after recycle (bufpool.Put already ran on this path)")
					case st&stTransferred != 0:
						fa.report(arg.Pos(), "ownership transferred twice: %s takes a buffer someone else already owns", calleeName(call))
					}
				}
			}
			fa.setStatus(s, ids, stTransferred)
			continue
		}
		// Borrow by default: the callee may read but not keep the buffer.
		fa.walk(s, arg, emit)
	}
}

// framePayload resolves a frame parameter named on its own to the payload
// it carries.
func (fa *funcAnalysis) framePayload(e ast.Expr) []token.Pos {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if b, ok := fa.frameParams[fa.identObj(id)]; ok {
			return []token.Pos{b}
		}
	}
	return nil
}

// recycle applies bufpool.Put(e), or e.Release() under a releases contract:
// the buffers e denotes go back to their pool. It reports whether e denotes
// any.
func (fa *funcAnalysis) recycle(s *state, call *ast.CallExpr, e ast.Expr, what string, emit bool) bool {
	ids := fa.bufsOf(s, e)
	if ids == nil {
		return false
	}
	if emit {
		for _, id := range ids {
			info, st := fa.bufs[id], s.bufs[id]
			switch {
			case info != nil && info.borrowed:
				fa.report(call.Pos(), "%s of %s: receivers do not own delivered payloads", what, info.desc)
			case st&stRecycled != 0:
				fa.report(call.Pos(), "double recycle: %s may already have run for this buffer on this path", what)
			case st&stTransferred != 0:
				fa.report(call.Pos(), "%s of a buffer whose ownership was already transferred", what)
			}
		}
	}
	fa.setStatus(s, ids, stRecycled)
	return true
}

// calleeFact returns the contract a call is made under: the called
// function's or field's own, or failing that its named func type's, or
// failing that the empty one.
func (fa *funcAnalysis) calleeFact(call *ast.CallExpr) OwnershipFact {
	fact := OwnershipFact{AliasReturn: -1}
	if obj := fa.calleeObj(call); obj != nil && fa.a.pass.ImportObjectFact(obj, &fact) {
		return fact
	}
	if t := fa.a.typeOf(call.Fun); t != nil {
		if obj := fa.a.typeContract(t); obj != nil {
			fa.a.pass.ImportObjectFact(obj, &fact)
		}
	}
	return fact
}

// pooledSource reports whether the call produces a pooled buffer the
// caller owns (bufpool.Get or a returns-pooled contract), registering the
// abstract buffer.
func (fa *funcAnalysis) pooledSource(call *ast.CallExpr) (token.Pos, bool) {
	if fact := fa.calleeFact(call); !isBufpool(fa.calleeObj(call), "Get") && !fact.ReturnsPooled {
		return 0, false
	}
	id := call.Pos()
	if fa.bufs[id] == nil {
		fa.bufs[id] = &bufInfo{pos: id, desc: "from " + calleeName(call), owned: true}
	}
	return id, true
}

// aliasReturn reports the buffers the call's result aliases, per a
// returns-alias contract (MarshalInto's result is its argument).
func (fa *funcAnalysis) aliasReturn(s *state, call *ast.CallExpr) ([]token.Pos, bool) {
	fact := fa.calleeFact(call)
	if fact.AliasReturn < 0 || fact.AliasReturn >= len(call.Args) {
		return nil, false
	}
	ids := fa.bufsOf(s, call.Args[fact.AliasReturn])
	return ids, len(ids) > 0
}

// assign handles the ownership flow of one assignment statement.
func (fa *funcAnalysis) assign(s *state, as *ast.AssignStmt, emit bool) {
	// Tuple form: raw, err := pkt.MarshalInto(buf)
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
			fa.call(s, call, emit)
			var ids []token.Pos
			if id, ok := fa.pooledSource(call); ok {
				ids = []token.Pos{id}
				s.bufs[id] = stOwned
				// (buffer, err): nil on the failure path, which the graph
				// cannot tell from the other; no leak check.
				fa.bufs[id].owned = false
			} else if al, ok := fa.aliasReturn(s, call); ok {
				ids = al
			}
			fa.assignTarget(s, as.Lhs[0], as.Rhs[0], ids, emit)
			for _, l := range as.Lhs[1:] {
				fa.assignTarget(s, l, nil, nil, emit)
			}
			return
		}
		fa.walk(s, as.Rhs[0], emit)
		for _, l := range as.Lhs {
			fa.assignTarget(s, l, nil, nil, emit)
		}
		return
	}
	if len(as.Lhs) != len(as.Rhs) {
		for _, r := range as.Rhs {
			fa.walk(s, r, emit)
		}
		return
	}
	for i, r := range as.Rhs {
		fa.assignOne(s, as.Lhs[i], r, false, emit)
	}
}

// assignOne handles LHS <- RHS for one pair (decl selects ValueSpec
// semantics: a nil RHS just clears the binding).
func (fa *funcAnalysis) assignOne(s *state, l ast.Expr, r ast.Expr, decl bool, emit bool) {
	if r == nil {
		fa.assignTarget(s, l, nil, nil, emit)
		return
	}
	ids := fa.bufsOf(s, r)
	if ids == nil {
		if call, ok := r.(*ast.CallExpr); ok {
			fa.call(s, call, emit)
			if id, ok := fa.pooledSource(call); ok {
				ids = []token.Pos{id}
				s.bufs[id] = stOwned
			} else if al, ok := fa.aliasReturn(s, call); ok {
				ids = al
			}
		} else {
			fa.walk(s, r, emit)
		}
	}
	fa.assignTarget(s, l, r, ids, emit)
}

// assignTarget binds buffers to a local, or treats a store through a
// selector/index/deref as an escape: the aggregate now holds the buffer.
func (fa *funcAnalysis) assignTarget(s *state, l ast.Expr, r ast.Expr, ids []token.Pos, emit bool) {
	if id, ok := l.(*ast.Ident); ok && !fa.isGlobal(id) {
		if id.Name == "_" {
			return
		}
		obj := fa.identObj(id)
		if obj == nil {
			return
		}
		if len(ids) > 0 {
			s.vars[obj] = unionPos(ids, nil)
		} else {
			delete(s.vars, obj)
		}
		return
	}
	// Store outside the frame (field, element, global): every tracked
	// buffer in the RHS escapes.
	escape := ids
	if escape == nil && r != nil {
		escape = fa.deepBufs(s, r)
	}
	if len(escape) == 0 {
		return
	}
	if emit {
		for _, id := range escape {
			if info := fa.bufs[id]; info != nil && info.borrowed {
				fa.report(r.Pos(), "%s retained past synchronous delivery: copy it before storing", info.desc)
			}
		}
	}
	fa.setStatus(s, escape, stTransferred)
}

// isGlobal reports whether id names a package-level variable: a store to
// one outlives the function like a store to a field.
func (fa *funcAnalysis) isGlobal(id *ast.Ident) bool {
	v, ok := fa.identObj(id).(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// closure treats a function literal appearing in an expression: any
// tracked buffer it captures may outlive the current path, so ownership
// is considered transferred — and capturing a borrowed payload is
// retention by definition (the closure runs after delivery returns).
func (fa *funcAnalysis) closure(s *state, lit *ast.FuncLit, emit bool) {
	var captured []token.Pos
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if obj := fa.identObj(x); obj != nil {
				if ids, ok := s.vars[obj]; ok {
					captured = append(captured, ids...)
				}
			}
		case *ast.SelectorExpr:
			if ids := fa.bufsOf(s, x); len(ids) > 0 {
				captured = append(captured, ids...)
				return false
			}
		}
		return true
	})
	captured = unionPos(captured, nil)
	if len(captured) == 0 {
		return
	}
	if emit {
		for _, id := range captured {
			if info := fa.bufs[id]; info != nil && info.borrowed {
				fa.report(lit.Pos(), "%s captured by a closure: it escapes the synchronous delivery chain", info.desc)
			}
		}
	}
	fa.setStatus(s, captured, stTransferred)
}

// calleeObj resolves the called function/field object, best effort.
func (fa *funcAnalysis) calleeObj(call *ast.CallExpr) types.Object {
	return fa.a.exprObj(call.Fun)
}

// calleeName renders the callee for diagnostics.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "callee"
}

// isBufpool reports whether obj is the named function of a package whose
// final path segment is "bufpool" — the real pool or a fixture stand-in.
func isBufpool(obj types.Object, name string) bool {
	if obj == nil || obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == "bufpool" || strings.HasSuffix(path, "/bufpool")
}

// Package ctrlock defines the chantvet analyzer that protects the
// integrity of Chant's instrumentation and sync primitives: trace.Counters
// contains atomics and a mutex, so copying it by value forks the
// instrument (half the events land in a doomed copy); counter atomics
// are add-only, so Store/Swap from any context races with concurrent Adds;
// and a sync.Mutex Lock with no matching Unlock in the same function is the
// classic lock leak that hangs a real-mode scheduler.
package ctrlock

import (
	"go/ast"
	"go/token"
	"go/types"

	"chant/internal/analysis"
	"chant/internal/analysis/detlint"
)

// Analyzer flags trace instrument misuse and unbalanced lock pairs.
var Analyzer = &analysis.Analyzer{
	Name: "ctrlock",
	Doc: "report by-value copies of trace.Counters, Store/Swap on " +
		"add-only counter atomics, sync.Mutex Lock calls with no " +
		"matching Unlock in the same function, and append-based compact " +
		"deletes on reference-element slices (they strand a live reference " +
		"in the vacated tail slot)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !detlint.InScope(pass.Pkg.Path()) && !analysis.PathMatches(pass.Pkg.Path(), "internal/trace") {
		return nil
	}
	for _, file := range pass.Files {
		if pass.IsTest(file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					// Assigning to the blank identifier discards the value;
					// no usable copy is made.
					if len(n.Lhs) == len(n.Rhs) {
						if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
							continue
						}
					}
					checkCopy(pass, rhs)
				}
				checkCompactDelete(pass, n)
			case *ast.CallExpr:
				checkStore(pass, n)
				for _, arg := range n.Args {
					checkCopy(pass, arg)
				}
			case *ast.FuncType:
				checkSignature(pass, n)
			case *ast.FuncDecl:
				checkLockBalance(pass, n)
			}
			return true
		})
	}
	return nil
}

// isCounters reports whether t is trace.Counters as a value type. Other
// mutex-holding trace types (Tracer, Recorder) are covered by vet's
// copylocks.
func isCounters(t types.Type) bool {
	named, isNamed := t.(*types.Named)
	return isNamed && named.Obj().Pkg() != nil &&
		analysis.PathMatches(named.Obj().Pkg().Path(), "internal/trace") &&
		named.Obj().Name() == "Counters"
}

// checkCopy flags expressions that copy a Counters by value: a
// dereference, a variable read, or a call result of value type.
func checkCopy(pass *analysis.Pass, expr ast.Expr) {
	expr = ast.Unparen(expr)
	if _, isLit := expr.(*ast.CompositeLit); isLit {
		return // constructing a fresh instrument is fine
	}
	if _, isCall := expr.(*ast.CallExpr); isCall {
		// A call yielding a value-typed instrument is itself declared
		// somewhere we flag; don't double-report at each call site.
		return
	}
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || !tv.IsValue() {
		return
	}
	if isCounters(tv.Type) {
		pass.Reportf(expr.Pos(), "trace.Counters copied by value: the copy forks mutex and atomic state, splitting the instrument; use a pointer")
	}
}

// checkSignature flags value-typed Counters parameters and results.
func checkSignature(pass *analysis.Pass, ft *ast.FuncType) {
	flag := func(fl *ast.FieldList, kind string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			tv, ok := pass.TypesInfo.Types[field.Type]
			if !ok {
				continue
			}
			if isCounters(tv.Type) {
				pass.Reportf(field.Type.Pos(), "trace.Counters passed by value as a %s: every call copies mutex and atomic state; use a pointer", kind)
			}
		}
	}
	flag(ft.Params, "parameter")
	flag(ft.Results, "result")
}

// checkStore flags Store and Swap on atomic fields reached through a
// trace.Counters: counters are add-only accumulators, and a Store loses
// every Add that raced with it.
func checkStore(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return
	}
	if fn.Name() != "Store" && fn.Name() != "Swap" && fn.Name() != "CompareAndSwap" {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	field, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return
	}
	tv, ok := pass.TypesInfo.Types[field.X]
	if !ok {
		return
	}
	t := tv.Type
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	if isCounters(t) {
		pass.Reportf(call.Pos(), "%s on a trace.Counters field: counters are add-only; %s discards Adds racing from other schedulers", fn.Name(), fn.Name())
	}
}

// checkCompactDelete flags the `s = append(s[:i], s[i+1:]...)` element
// removal idiom when s's elements hold references (pointers, interfaces,
// slices, maps, chans, funcs, strings): append shifts the tail left but the
// old last slot keeps its value, pinning the removed object until the slice
// is reallocated — exactly the failPeer leak this repo once shipped. The
// fix is copy + nil the vacated slot + truncate.
func checkCompactDelete(pass *analysis.Pass, n *ast.AssignStmt) {
	if n.Tok != token.ASSIGN || len(n.Lhs) != 1 || len(n.Rhs) != 1 {
		return
	}
	call, ok := n.Rhs[0].(*ast.CallExpr)
	if !ok || !call.Ellipsis.IsValid() || len(call.Args) != 2 {
		return
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return
	}
	if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	head, ok := ast.Unparen(call.Args[0]).(*ast.SliceExpr)
	if !ok || head.High == nil || head.Slice3 {
		return
	}
	tail, ok := ast.Unparen(call.Args[1]).(*ast.SliceExpr)
	if !ok || tail.Low == nil || tail.High != nil {
		return
	}
	base := types.ExprString(head.X)
	if types.ExprString(tail.X) != base || types.ExprString(n.Lhs[0]) != base {
		return
	}
	tv, ok := pass.TypesInfo.Types[head.X]
	if !ok {
		return
	}
	slice, ok := tv.Type.Underlying().(*types.Slice)
	if !ok || !holdsReferences(slice.Elem()) {
		return
	}
	pass.Reportf(n.Pos(), "append-based compact delete on %s strands a live reference in the vacated tail slot; use copy, zero the last element, then truncate", base)
}

// holdsReferences reports whether values of type t keep other objects
// reachable (so a stale slot delays collection).
func holdsReferences(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Slice, *types.Map,
		*types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.String
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if holdsReferences(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return holdsReferences(u.Elem())
	}
	return false
}

// lockMethod resolves a call to a (Lock|RLock|Unlock|RUnlock|TryLock) method
// on sync.Mutex/sync.RWMutex or Chant's ult.Mutex, returning the method name
// and a key identifying the receiver expression.
func lockMethod(pass *analysis.Pass, call *ast.CallExpr) (method, recvKey string) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return "", ""
	}
	named := analysis.RecvNamed(fn)
	if named == nil || named.Obj().Pkg() == nil {
		return "", ""
	}
	pkg := named.Obj().Pkg().Path()
	isSync := pkg == "sync" && (named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex")
	isUlt := analysis.PathMatches(pkg, "internal/ult") && named.Obj().Name() == "Mutex"
	if !isSync && !isUlt {
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	return fn.Name(), types.ExprString(sel.X)
}

// checkLockBalance counts Lock and Unlock call sites per receiver
// expression within one function: more Locks than Unlocks (deferred or not)
// means some path leaks the lock. The converse (extra Unlocks on branched
// paths) is fine and common.
func checkLockBalance(pass *analysis.Pass, decl *ast.FuncDecl) {
	if decl.Body == nil {
		return
	}
	type counts struct {
		locks, unlocks int
		firstLock      ast.Node
	}
	perRecv := map[string]*counts{}
	record := func(call *ast.CallExpr) {
		method, key := lockMethod(pass, call)
		if method == "" {
			return
		}
		c := perRecv[key]
		if c == nil {
			c = &counts{}
			perRecv[key] = c
		}
		switch method {
		case "Lock", "RLock":
			c.locks++
			if c.firstLock == nil {
				c.firstLock = call
			}
		case "Unlock", "RUnlock":
			c.unlocks++
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Literal bodies are separate balance domains only when they
			// escape; a deferred literal releasing the lock belongs to this
			// function's balance, so keep descending.
			return true
		case *ast.CallExpr:
			record(n)
		}
		return true
	})
	// Deterministic report order: walk the body again in source order.
	reported := map[string]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		method, key := lockMethod(pass, call)
		if method != "Lock" && method != "RLock" || reported[key] {
			return true
		}
		if c := perRecv[key]; c != nil && c.locks > c.unlocks {
			reported[key] = true
			pass.Reportf(call.Pos(), "%s.%s has no matching unlock in %s: %d lock call(s) vs %d unlock call(s); some path leaks the lock", key, method, decl.Name.Name, c.locks, c.unlocks)
		}
		return true
	})
}

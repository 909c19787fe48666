package instrument

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file decides WHICH expressions get access records. The governing
// rule: a skipped access can only mask a race (miss a report), never
// fabricate one, so every heuristic here errs toward skipping when the
// expression cannot be re-evaluated safely and toward recording when
// the location might be shared.

// stripParens unwraps parenthesized expressions.
func stripParens(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// pure reports whether evaluating e (again) has no side effects, so the
// rewriter may duplicate it inside a shim call.
func pure(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident, *ast.BasicLit:
		return true
	case *ast.ParenExpr:
		return pure(e.X)
	case *ast.SelectorExpr:
		return pure(e.X)
	case *ast.IndexExpr:
		return pure(e.X) && pure(e.Index)
	case *ast.StarExpr:
		return pure(e.X)
	case *ast.UnaryExpr:
		return e.Op != token.ARROW && pure(e.X)
	case *ast.BinaryExpr:
		return pure(e.X) && pure(e.Y)
	default:
		return false
	}
}

// addressable reports whether &e is legal Go.
func (r *rewriter) addressable(e ast.Expr) bool {
	switch e := stripParens(e).(type) {
	case *ast.Ident:
		_, ok := r.info.ObjectOf(e).(*types.Var)
		return ok
	case *ast.StarExpr:
		return true
	case *ast.IndexExpr:
		switch r.baseType(e.X).(type) {
		case *types.Slice:
			return true
		case *types.Pointer: // pointer to array
			return true
		case *types.Array:
			return r.addressable(e.X)
		default: // map, string, type parameter
			return false
		}
	case *ast.SelectorExpr:
		if sel, ok := r.info.Selections[e]; ok {
			if sel.Kind() != types.FieldVal {
				return false
			}
			if _, isPtr := r.baseType(e.X).(*types.Pointer); isPtr {
				return true
			}
			return r.addressable(e.X)
		}
		// Qualified identifier pkg.Var: addressable when it names a var.
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := r.info.ObjectOf(id).(*types.PkgName); isPkg {
				_, isVar := r.info.ObjectOf(e.Sel).(*types.Var)
				return isVar
			}
		}
		return false
	default:
		return false
	}
}

// baseType returns the underlying type of e, or nil.
func (r *rewriter) baseType(e ast.Expr) types.Type {
	if t, ok := r.info.Types[e]; ok && t.Type != nil {
		return t.Type.Underlying()
	}
	return nil
}

// shouldRecord reports whether the lvalue path e can refer to memory
// reachable from another goroutine: any path through a pointer, slice,
// map or channel is (the pointee may be shared no matter where the
// pointer lives), and a plain value path is when its root variable is
// package-level or escaped.
func (r *rewriter) shouldRecord(e ast.Expr) bool {
	for {
		switch x := stripParens(e).(type) {
		case *ast.Ident:
			v, ok := r.info.ObjectOf(x).(*types.Var)
			if !ok || v.Name() == "_" {
				return false
			}
			if v.Parent() == r.pkg.Scope() {
				return true
			}
			return r.escaped[v]
		case *ast.StarExpr:
			return true
		case *ast.IndexExpr:
			switch r.baseType(x.X).(type) {
			case *types.Array:
				e = x.X // value path continues through the array
			default:
				return true // slice/map/pointer: heap-reachable
			}
		case *ast.SelectorExpr:
			if _, isPtr := r.baseType(x.X).(*types.Pointer); isPtr {
				return true
			}
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := r.info.ObjectOf(id).(*types.PkgName); isPkg {
					return true // another package's variable
				}
			}
			e = x.X
		default:
			return false
		}
	}
}

// accessCall builds the __ft.R/__ft.W record for the lvalue e, or nil
// when e is not a recordable shared location. Map elements are not
// addressable, so a map access is recorded against the map variable
// itself (coarser, still sound: a racing map access IS a race on the
// map).
func (r *rewriter) accessCall(op string, e ast.Expr) ast.Stmt {
	e = stripParens(e)
	if id, ok := e.(*ast.Ident); ok && id.Name == "_" {
		return nil
	}
	if ix, ok := e.(*ast.IndexExpr); ok {
		if _, isMap := r.baseType(ix.X).(*types.Map); isMap {
			return r.accessCall(op, ix.X)
		}
	}
	if !r.shouldRecord(e) {
		return nil
	}
	if !pure(e) || !r.addressable(e) {
		r.stats.Skipped++
		return nil
	}
	if op == "R" {
		r.stats.Reads++
	} else {
		r.stats.Writes++
	}
	return r.record(op, addrOf(e))
}

// readRecords walks an expression and returns the read records for
// every shared location it loads (pre-statement) plus the records for
// receives embedded in it (post-statement: the receive completes when
// the statement runs). Function literal bodies are excluded — they run
// later, and rewriteFuncLits handles them.
func (r *rewriter) readRecords(e ast.Expr) (pre, post []ast.Stmt) {
	var walk, inside func(e ast.Expr)
	// inside walks the loads that locating e performs, other than e
	// itself: indices, and the pointers and slices the path goes
	// through. An array-typed base of an element is part of the
	// element's own location, not a load of its own: recording it would
	// read the whole array at element 0's address.
	inside = func(e ast.Expr) {
		switch x := stripParens(e).(type) {
		case *ast.Ident:
		case *ast.StarExpr:
			walk(x.X)
		case *ast.IndexExpr:
			walk(x.Index)
			if _, ok := r.baseType(x.X).(*types.Array); ok {
				inside(x.X)
			} else if _, ok := x.X.(*ast.Ident); !ok {
				walk(x.X)
			}
		case *ast.SelectorExpr:
			if _, ok := r.baseType(x.X).(*types.Pointer); ok {
				walk(x.X)
			} else {
				inside(x.X)
			}
		default:
			walk(x)
		}
	}
	walk = func(e ast.Expr) {
		switch e := stripParens(e).(type) {
		case nil, *ast.BasicLit, *ast.FuncLit:
		case *ast.Ident, *ast.StarExpr, *ast.SelectorExpr, *ast.IndexExpr:
			if c := r.accessCall("R", e); c != nil {
				pre = append(pre, c)
			}
			// A field read is recorded on its own; indices and
			// dereferenced pointers contain further reads.
			if _, ok := e.(*ast.SelectorExpr); !ok {
				inside(e)
			}
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				post = append(post, gStmt("ChanRecv", e.X))
				r.stats.ChanOps++
				walk(e.X)
				break
			}
			if e.Op == token.AND {
				break // taking an address reads nothing
			}
			walk(e.X)
		case *ast.BinaryExpr:
			walk(e.X)
			walk(e.Y)
		case *ast.CallExpr:
			for _, a := range e.Args {
				walk(a)
			}
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				walk(el)
			}
		case *ast.KeyValueExpr:
			walk(e.Key)
			walk(e.Value)
		case *ast.SliceExpr:
			walk(e.X)
			walk(e.Low)
			walk(e.High)
			walk(e.Max)
		case *ast.TypeAssertExpr:
			walk(e.X)
		}
	}
	walk(e)
	return pre, post
}

// indexReads returns the read records for index/key expressions inside
// a write target (writing a[i] reads i; writing m[k] reads k).
func (r *rewriter) indexReads(l ast.Expr) []ast.Stmt {
	var out []ast.Stmt
	for {
		switch x := stripParens(l).(type) {
		case *ast.IndexExpr:
			pre, _ := r.readRecords(x.Index)
			out = append(out, pre...)
			l = x.X
		case *ast.SelectorExpr:
			l = x.X
		case *ast.StarExpr:
			l = x.X
		default:
			return out
		}
	}
}

// isBuiltin reports whether id resolves to a Go builtin (close, len...).
func (r *rewriter) isBuiltin(id *ast.Ident) bool {
	_, ok := r.info.ObjectOf(id).(*types.Builtin)
	return ok
}

// syncOp recognizes method calls on the sync package's types and
// returns an internal op name plus a pointer expression for the
// receiver, or "" when the call is not one the shim models (then the
// generic call path records its argument reads).
func (r *rewriter) syncOp(call *ast.CallExpr) (string, ast.Expr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	selection, ok := r.info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return "", nil
	}
	t := selection.Recv()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", nil
	}
	var op string
	switch named.Obj().Name() + "." + sel.Sel.Name {
	case "Mutex.Lock":
		op = "Lock"
	case "Mutex.Unlock":
		op = "Unlock"
	case "RWMutex.Lock":
		op = "RWLock"
	case "RWMutex.Unlock":
		op = "RWUnlock"
	case "RWMutex.RLock":
		op = "RLock"
	case "RWMutex.RUnlock":
		op = "RUnlock"
	case "WaitGroup.Done":
		op = "WGDone"
	case "WaitGroup.Wait":
		op = "WGWait"
	case "Once.Do":
		op = "OnceDo"
	default:
		return "", nil
	}
	if !pure(sel.X) {
		r.stats.Skipped++
		return "", nil
	}
	recv := ast.Expr(sel.X)
	if _, isPtr := r.baseType(sel.X).(*types.Pointer); !isPtr {
		recv = addrOf(sel.X)
	}
	return op, recv
}

// syncRecords maps a recognized sync op to its shim records. Acquire
// sides are recorded after the real operation (the edge exists once the
// lock is held), release sides before it (the edge must be published
// before another thread can acquire).
func (r *rewriter) syncRecords(op string, recv ast.Expr) (pre, post []ast.Stmt) {
	r.stats.SyncOps++
	switch op {
	case "Lock":
		post = []ast.Stmt{r.record("Acquire", recv)}
	case "Unlock":
		pre = []ast.Stmt{r.record("Release", recv)}
	case "RWLock":
		post = []ast.Stmt{r.record("AcquireRW", recv)}
	case "RWUnlock":
		pre = []ast.Stmt{r.record("ReleaseRW", recv)}
	case "RLock":
		post = []ast.Stmt{r.record("RAcquire", recv)}
	case "RUnlock":
		pre = []ast.Stmt{r.record("RRelease", recv)}
	case "WGDone":
		pre = []ast.Stmt{r.record("WGDone", recv)}
	case "WGWait":
		post = []ast.Stmt{r.record("WGWait", recv)}
	case "OnceDo":
		post = []ast.Stmt{r.record("OnceDo", recv)}
	}
	return pre, post
}

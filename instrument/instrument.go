// Package instrument is the Go-native front-end of the race detector:
// it rewrites the source of a target package so that every potentially
// shared memory access and every synchronization operation — go
// statements, sync.Mutex/RWMutex/WaitGroup/Once calls, and channel
// send/receive/close (including select and range) — reports to the
// fasttrack/instrument/rt runtime shim, then lays the rewritten
// package down as a self-contained module that builds against this
// repository via a replace directive.
//
// The rewriter is source-to-source (go/parser + go/types + go/printer)
// rather than a compiler plugin, mirroring how the paper's RoadRunner
// framework instruments JVM bytecode at load time: the program under
// test is modified, the detector is not special-cased in the runtime.
//
// Scope and limitations (checked or documented, never silently wrong
// in the racy direction unless listed):
//
//   - the target must be a single self-contained package importing
//     only the standard library;
//   - accesses through impure paths (index or receiver expressions
//     with function calls inside) are not recorded, and loop/switch
//     condition re-evaluations are recorded once at most — missed
//     accesses can mask races, never invent them;
//   - `go f(x)` with a named callee evaluates f and x in the child
//     goroutine instead of the parent (a `go func(){...}()` literal —
//     the common form — keeps exact semantics);
//   - sends inside select are recorded after the operation commits,
//     so a matching receive can appear first in the stream; the
//     detector's accumulator fallback keeps that sound;
//   - comments (including //go:* directives) are dropped from the
//     instrumented copy.
package instrument

import (
	"fmt"
	"go/ast"
	"go/format"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// shimImport is the import path of the runtime shim package.
const shimImport = "fasttrack/instrument/rt"

// shimName is the identifier the rewriter injects calls through; the
// leading underscores keep it out of the way of user identifiers.
const shimName = "__ft"

// gName is the identifier an instrumented function body binds its
// goroutine's shim state to (rt.Self, or rt.Begin in a go statement).
const gName = shimName + "_g"

// Options configures an instrumentation run.
type Options struct {
	// ModuleDir is the root of the fasttrack module (the directory
	// holding its go.mod), used for the replace directive of the
	// generated module.
	ModuleDir string
	// Test includes _test.go files and generates a TestMain wrapper
	// that boots and shuts down the shim around m.Run.
	Test bool
}

// Stats counts what the rewriter did.
type Stats struct {
	Files   int // files rewritten
	Reads   int // read records injected
	Writes  int // write records injected
	Forks   int // go statements wrapped
	ChanOps int // channel send/recv/close records
	SyncOps int // mutex/waitgroup/once records
	Skipped int // accesses skipped (impure path, unaddressable, ...)
}

// Result describes the instrumented copy.
type Result struct {
	Dir     string // generated module directory
	Package string // package name of the target
	Main    bool   // the target is package main
	Stats   Stats
}

// Instrument rewrites the package in srcDir into a standalone module
// under outDir. outDir must exist and be empty or freshly created.
func Instrument(srcDir, outDir string, opts Options) (*Result, error) {
	fset := token.NewFileSet()
	names, err := sourceFiles(srcDir, opts.Test)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("instrument: no Go files in %s", srcDir)
	}

	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(srcDir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("instrument: %w", err)
		}
		switch {
		case pkgName == "" || pkgName == f.Name.Name:
			pkgName = f.Name.Name
		case f.Name.Name == pkgName+"_test":
			return nil, fmt.Errorf("instrument: external test package %s not supported", f.Name.Name)
		default:
			return nil, fmt.Errorf("instrument: multiple packages in %s: %s and %s", srcDir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(pkgName, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("instrument: type checking %s (only stdlib imports are supported): %w", srcDir, err)
	}

	rw := newRewriter(fset, info, pkg)
	rw.findEscaped(files)

	res := &Result{Dir: outDir, Package: pkgName, Main: pkgName == "main"}
	hasTestMain := false
	for i, f := range files {
		rw.rewriteFile(f, res.Main)
		if opts.Test && declaresTestMain(f) {
			hasTestMain = true
		}
		var b strings.Builder
		if err := format.Node(&b, fset, f); err != nil {
			return nil, fmt.Errorf("instrument: printing %s: %w", names[i], err)
		}
		if err := os.WriteFile(filepath.Join(outDir, names[i]), []byte(b.String()), 0o644); err != nil {
			return nil, err
		}
		res.Stats.Files++
	}
	res.Stats.Reads = rw.stats.Reads
	res.Stats.Writes = rw.stats.Writes
	res.Stats.Forks = rw.stats.Forks
	res.Stats.ChanOps = rw.stats.ChanOps
	res.Stats.SyncOps = rw.stats.SyncOps
	res.Stats.Skipped = rw.stats.Skipped

	if opts.Test {
		if hasTestMain {
			return nil, fmt.Errorf("instrument: %s defines TestMain; the instrumented TestMain wrapper cannot be generated", pkgName)
		}
		wrapper := fmt.Sprintf(testMainTemplate, pkgName, shimImport)
		if err := os.WriteFile(filepath.Join(outDir, "zz_ft_main_test.go"), []byte(wrapper), 0o644); err != nil {
			return nil, err
		}
	}

	if err := writeGoMod(outDir, opts.ModuleDir); err != nil {
		return nil, err
	}
	return res, nil
}

const testMainTemplate = `package %s

import (
	"os"
	"testing"

	__ft %q
)

func TestMain(m *testing.M) {
	fin := __ft.Boot()
	code := m.Run()
	fin()
	os.Exit(code)
}
`

// sourceFiles lists the .go files to instrument, sorted for
// deterministic output.
func sourceFiles(dir string, includeTests bool) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// declaresTestMain reports whether the file defines func TestMain.
func declaresTestMain(f *ast.File) bool {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "TestMain" {
			return true
		}
	}
	return false
}

var modulePathRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// writeGoMod lays down the generated module's go.mod, requiring the
// fasttrack module by its declared path and replacing it with the
// local checkout.
func writeGoMod(outDir, moduleDir string) error {
	if moduleDir == "" {
		return fmt.Errorf("instrument: Options.ModuleDir is required")
	}
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return fmt.Errorf("instrument: ModuleDir: %w", err)
	}
	m := modulePathRE.FindSubmatch(data)
	if m == nil {
		return fmt.Errorf("instrument: no module line in %s/go.mod", abs)
	}
	modPath := string(m[1])
	gomod := fmt.Sprintf("module ftinstrumented\n\ngo 1.22\n\nrequire %s v0.0.0\n\nreplace %s => %s\n",
		modPath, modPath, abs)
	return os.WriteFile(filepath.Join(outDir, "go.mod"), []byte(gomod), 0o644)
}

package instrument

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// racyProgram has one race (the read of y concurrent with the child's
// write) and one channel-synchronized pair (x, published over the
// unbuffered done channel) that must NOT be reported.
const racyProgram = `package main

import "fmt"

var x, y int

func main() {
	done := make(chan bool)
	go func() {
		x = 1
		y = 1
		done <- true
	}()
	before := y
	<-done
	after := x
	fmt.Sprintln(before, after)
}
`

// cleanProgram synchronizes everything with a mutex and a WaitGroup;
// zero races expected.
const cleanProgram = `package main

import (
	"fmt"
	"sync"
)

var c int

func main() {
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			mu.Lock()
			c++
			mu.Unlock()
		}()
	}
	wg.Wait()
	fmt.Sprintln(c)
}
`

// chanProgram exercises buffered-channel slack: with capacity 2 the
// second send does not wait for the first receive, so the receiver-side
// write is unordered with the sender's read — one race.
const chanProgram = `package main

import "fmt"

var v int

func main() {
	ch := make(chan int, 2)
	done := make(chan bool)
	go func() {
		v = 1
		<-ch
		<-ch
		done <- true
	}()
	ch <- 1
	ch <- 2
	r := v
	<-done
	fmt.Sprintln(r)
}
`

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(dir)
}

func instrumentSource(t *testing.T, src string) (*Result, string) {
	t.Helper()
	srcDir := t.TempDir()
	outDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(srcDir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Instrument(srcDir, outDir, Options{ModuleDir: repoRoot(t)})
	if err != nil {
		t.Fatalf("Instrument: %v", err)
	}
	return res, outDir
}

func TestRewriteInjectsShimCalls(t *testing.T) {
	_, outDir := instrumentSource(t, racyProgram)
	data, err := os.ReadFile(filepath.Join(outDir, "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	for _, want := range []string{
		`__ft "fasttrack/instrument/rt"`,
		"defer __ft.Boot()()",
		"__ft_g := __ft.Self()",
		"__ft_g.Fork()",
		"__ft_g := __ft.Begin(__ft_parent)",
		"defer __ft_g.End()",
		"__ft.W(__ft_g, &x)",
		"__ft.W(__ft_g, &y)",
		"__ft.R(__ft_g, &y)",
		"__ft.R(__ft_g, &x)",
		"__ft_g.ChanSend(done)",
		"__ft_g.ChanRecv(done)",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("instrumented source missing %q:\n%s", want, got)
		}
	}
	gomod, err := os.ReadFile(filepath.Join(outDir, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(gomod), "replace fasttrack => ") {
		t.Fatalf("go.mod missing replace directive:\n%s", gomod)
	}
}

func TestRewriteSyncCalls(t *testing.T) {
	res, outDir := instrumentSource(t, cleanProgram)
	data, err := os.ReadFile(filepath.Join(outDir, "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	for _, want := range []string{
		"__ft.Acquire(__ft_g, &mu)",
		"__ft.Release(__ft_g, &mu)",
		"__ft.WGDone(__ft_g, &wg)",
		"__ft.WGWait(__ft_g, &wg)",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("instrumented source missing %q:\n%s", want, got)
		}
	}
	if res.Stats.SyncOps == 0 || res.Stats.Forks != 1 {
		t.Fatalf("unexpected stats: %+v", res.Stats)
	}
}

// runInstrumented builds and executes an instrumented module with the
// in-process monitor sink and returns the parsed report.
func runInstrumented(t *testing.T, src string) (races int) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not available")
	}
	_, outDir := instrumentSource(t, src)
	bin := filepath.Join(outDir, "prog")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Dir = outDir
	build.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	report := filepath.Join(outDir, "report.json")
	run := exec.Command(bin)
	run.Env = append(os.Environ(), "FASTTRACK_MODE=local", "FASTTRACK_REPORT="+report)
	if out, err := run.CombinedOutput(); err != nil {
		t.Fatalf("instrumented run: %v\n%s", err, out)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Tool   string `json:"tool"`
		Events int64  `json:"events"`
		Races  []struct {
			Var  uint64 `json:"var"`
			Kind string `json:"kind"`
		} `json:"races"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report: %v\n%s", err, data)
	}
	if rep.Events == 0 {
		t.Fatalf("report claims zero events:\n%s", data)
	}
	return len(rep.Races)
}

func TestInstrumentedRacyProgram(t *testing.T) {
	if races := runInstrumented(t, racyProgram); races != 1 {
		t.Fatalf("racy program: %d races, want exactly 1 (the y pair; x is channel-synchronized)", races)
	}
}

func TestInstrumentedCleanProgram(t *testing.T) {
	if races := runInstrumented(t, cleanProgram); races != 0 {
		t.Fatalf("clean program: %d races, want 0", races)
	}
}

func TestInstrumentedBufferedChannelSlack(t *testing.T) {
	if races := runInstrumented(t, chanProgram); races != 1 {
		t.Fatalf("buffered slack program: %d races, want exactly 1", races)
	}
}

// TestInstrumentedArrayElements: distinct elements of an array field
// are distinct locations. Reading vals[3] must not also record a read
// of the whole array at vals[0]'s address, which would race with the
// other goroutine's write of vals[0].
func TestInstrumentedArrayElements(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(repoRoot(t), "examples", "arrayelem", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if races := runInstrumented(t, string(src)); races != 0 {
		t.Fatalf("array-element program: %d races, want 0", races)
	}
	if racy, ok := goRaceReports(t, string(src)); ok && racy {
		t.Fatal("go run -race reports a race on the array-element program")
	}
}

// literalProgram has function literals that run on goroutines other
// than their enclosing function's: one passed to time.AfterFunc, one
// inside a go statement's literal. The two write v unordered (their
// mutex sections end before the writes), so there is exactly one race.
// bump's deferred Unlock runs on bump's goroutine.
const literalProgram = `package main

import (
	"sync"
	"time"
)

var (
	mu    sync.Mutex
	count int
	v     int
)

func bump() {
	mu.Lock()
	defer mu.Unlock()
	count++
}

func main() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		inc := func() {
			bump()
			v = 1
		}
		inc()
	}()
	done := make(chan bool)
	time.AfterFunc(time.Millisecond, func() {
		bump()
		v = 2
		done <- true
	})
	<-done
	wg.Wait()
	bump()
}
`

// TestRewriteBindsPerLiteral checks that every function body that
// records binds its own goroutine state at entry, except the wrappers
// around deferred sync calls, which run on the declaring goroutine and
// record through its binding. The instrumented program must build
// (no unused or missing __ft_g) and agree with go run -race.
func TestRewriteBindsPerLiteral(t *testing.T) {
	_, outDir := instrumentSource(t, literalProgram)
	data, err := os.ReadFile(filepath.Join(outDir, "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", data, 0)
	if err != nil {
		t.Fatal(err)
	}
	deferred := map[*ast.FuncLit]bool{}
	var self, begin int
	check := func(name string, body *ast.BlockStmt) {
		if !refersToG(body, deferred) {
			return
		}
		switch bindingOf(body) {
		case "Self":
			self++
		case "Begin":
			begin++
		default:
			t.Errorf("%s records without binding __ft_g first:\n%s", name, data)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok && bindingOf(lit.Body) == "" {
				deferred[lit] = true
			}
		case *ast.FuncDecl:
			check(n.Name.Name, n.Body)
		case *ast.FuncLit:
			if !deferred[n] {
				check("func literal", n.Body)
			}
		}
		return true
	})
	// bump, main, inc and the AfterFunc literal bind with Self; the go
	// statement's literal binds with Begin.
	if self != 4 || begin != 1 {
		t.Fatalf("bindings: %d Self, %d Begin; want 4 and 1:\n%s", self, begin, data)
	}
	for _, want := range []string{
		"__ft.Release(__ft_g, &mu)", // bump's deferred Unlock wrapper
		"__ft.WGDone(__ft_g, &wg)",  // the go literal's deferred Done wrapper
	} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("instrumented source missing %q:\n%s", want, data)
		}
	}
	races := runInstrumented(t, literalProgram)
	if races != 1 {
		t.Fatalf("literal program: %d races, want exactly 1 (v)", races)
	}
	if racy, ok := goRaceReports(t, literalProgram); ok && !racy {
		t.Fatal("go run -race reports no race on the literal program")
	}
}

// bindingOf returns "Self" or "Begin" when body starts by binding
// __ft_g to that shim call (after main's deferred Boot), else "".
func bindingOf(body *ast.BlockStmt) string {
	list := body.List
	if len(list) > 0 {
		if d, ok := list[0].(*ast.DeferStmt); ok {
			if _, boot := d.Call.Fun.(*ast.CallExpr); boot {
				list = list[1:]
			}
		}
	}
	if len(list) == 0 {
		return ""
	}
	as, ok := list[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return ""
	}
	if id, ok := as.Lhs[0].(*ast.Ident); !ok || id.Name != "__ft_g" {
		return ""
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	return sel.Sel.Name
}

// refersToG reports whether body mentions __ft_g outside the function
// literals nested in it, the deferred wrappers excepted.
func refersToG(body *ast.BlockStmt, deferred map[*ast.FuncLit]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return deferred[n]
		case *ast.Ident:
			found = found || n.Name == "__ft_g"
		}
		return !found
	})
	return found
}

// goRaceReports builds src with the Go race detector, runs it, and
// reports whether it printed a data race warning. ok is false when the
// race detector is unavailable (no cgo toolchain).
func goRaceReports(t *testing.T, src string) (racy, ok bool) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "prog")
	build := exec.Command("go", "build", "-race", "-o", bin, "main.go")
	build.Dir = dir
	if out, err := build.CombinedOutput(); err != nil {
		t.Logf("go build -race unavailable, skipping the cross-check: %v\n%s", err, out)
		return false, false
	}
	out, _ := exec.Command(bin).CombinedOutput()
	return strings.Contains(string(out), "WARNING: DATA RACE"), true
}

package clock

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// wallExceptions are the only places product code may read the wall clock
// directly; everything else reads the store's Clock, so that under a
// virtual clock every time-bound decision and every reported duration
// follow that one clock. A path ending in "/" covers a directory, any
// other path one file. Tickers and timers are not reads: they pace loops.
var wallExceptions = []struct{ path, why string }{
	{"internal/clock/", "the time source itself"},
	{"cmd/", "entry points: they time their own runs"},
	{"examples/", "entry points: demos that wait on a live server"},
	{"tools/", "entry points: developer tools outside the product"},
	{"internal/experiments/", "the harness's run timings: it measures how long a run takes on the wall"},
	{"internal/testutil/", "a test tool: polling deadlines"},
	{"internal/tlsproxy/", "a test tool: certificate validity and bandwidth pacing on real sockets"},
	{"pkg/gdprkv/conn.go", "socket deadlines, which the kernel keeps on the wall clock"},
	{"pkg/gdprkv/pool.go", "the idle age of a pooled connection, which the network ages on the wall clock"},
	{"internal/audit/socket.go", "the collector's dial backoff and write deadline"},
}

// timeReads are the package time functions that read the clock.
var timeReads = map[string]bool{"Now": true, "Since": true, "Until": true}

// TestProductCodeReadsStoreClock holds the rule over the root module.
func TestProductCodeReadsStoreClock(t *testing.T) {
	for _, e := range wallExceptions {
		if e.why == "" {
			t.Errorf("exception %s has no reason", e.path)
		}
	}
	findings, err := wallReads(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s reads the wall clock: read the store's clock.Clock, or add the call's own reason to wallExceptions", f)
	}
}

// TestWallReadGuardFindsPlantedCalls plants one file in a scratch module
// and counts what the guard reports.
func TestWallReadGuardFindsPlantedCalls(t *testing.T) {
	const now = "package p\n\nimport \"time\"\n\nfunc F() { _ = time.Now() }\n"
	for _, tc := range []struct {
		name, path, src string
		want            int
	}{
		{"time.Now in product code", "internal/core/planted.go", now, 1},
		{"aliased Since", "internal/server/planted.go",
			"package p\n\nimport t \"time\"\n\nfunc F(x t.Time) t.Duration { return t.Since(x) }\n", 1},
		{"dot-imported Until", "internal/ops/planted.go",
			"package p\n\nimport . \"time\"\n\nfunc F(x Time) Duration { return Until(x) }\n", 1},
		{"excepted directory", "cmd/planted/main.go", now, 0},
		{"excepted file", "pkg/gdprkv/conn.go", now, 0},
		{"method of another value", "internal/core/planted.go",
			"package p\n\nimport \"time\"\n\ntype c struct{}\n\nfunc (c) Now() time.Time { return time.Time{} }\n\nfunc F() { _ = c{}.Now() }\n", 0},
		{"test file", "internal/core/planted_test.go", now, 0},
		{"testdata", "internal/core/testdata/planted.go", now, 0},
		{"nested module", "bench/planted.go", now, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			for path, src := range map[string]string{
				"go.mod":       "module planted\n",
				"bench/go.mod": "module bench\n",
				tc.path:        tc.src,
			} {
				path = filepath.Join(root, filepath.FromSlash(path))
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			findings, err := wallReads(root)
			if err != nil {
				t.Fatal(err)
			}
			if len(findings) != tc.want {
				t.Fatalf("findings = %q, want %d", findings, tc.want)
			}
		})
	}
}

// wallReads parses every non-test .go file of the module at root and
// returns "file:line: call" for each use of time.Now, time.Since or
// time.Until outside wallExceptions. It skips nested modules (bench/),
// testdata and dot-directories.
func wallReads(root string) ([]string, error) {
	var out []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == root {
			return err
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil ||
				d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if excepted(rel) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		name := timeImportName(f)
		if name == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var read *ast.Ident
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == name {
					read = n.Sel
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && name == "." {
					read = id
				}
			}
			if read != nil && timeReads[read.Name] {
				out = append(out, fmt.Sprintf("%s:%d: %s.%s", rel, fset.Position(read.Pos()).Line, name, read.Name))
			}
			return true
		})
		return nil
	})
	return out, err
}

// timeImportName returns the local name the file gives package time ("."
// for a dot import), or "" when it does not import it.
func timeImportName(f *ast.File) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p != "time" {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return "time"
	}
	return ""
}

// excepted reports whether wallExceptions covers file rel.
func excepted(rel string) bool {
	for _, e := range wallExceptions {
		if rel == e.path || strings.HasSuffix(e.path, "/") && strings.HasPrefix(rel, e.path) {
			return true
		}
	}
	return false
}

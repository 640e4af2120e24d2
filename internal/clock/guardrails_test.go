package clock

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// A rule holds one invariant over the repository's Go files (the root
// module and bench/; test files only with tests): nothing it bans is used
// outside where it allows it. ids and strs match identifiers and string
// literal values, and exprs comparisons (a == b, as written); with pkg, ids
// match only that package's members. An allow
// site is a directory ("x/"), a file, or "file:func" ("file:" is the top
// level); a use passed to a call needs "file:func:callee". A site's value is
// its own reason ("": the rule's). With refusal, a literal may also stand in
// the list of a case whose next statement returns or assigns
// ErrRetiredFormat: the retired form's refusal.
type rule struct {
	name, why      string
	in             []string // path prefixes the rule covers; none: every file
	pkg            string
	ids, strs      *regexp.Regexp
	exprs          *regexp.Regexp
	allow          map[string]string
	refusal, tests bool
	uses           []string // expressions that break the rule, for the self-test
}

var (
	re      = regexp.MustCompile
	product = []string{"internal/", "cmd/", "pkg/", "examples/", "tools/"}
	fanout  = re(`Fanout|fanoutSpecs|ClusterDown|(FORGETUSER|GETUSER|EXPORTUSER|OBJECT|UNOBJECT)LOCAL`)
)

var rules = []rule{
	{name: "product code reads the store clock", pkg: "time", ids: re(`^(Now|Since|Until)$`), uses: []string{"time.Now()"},
		why: "read the store's clock.Clock, so that under a virtual clock every time-bound decision and every reported duration follow that one clock; tickers and timers pace loops and are not reads",
		allow: map[string]string{
			"internal/clock/": "the time source itself", "bench/": "a module of its own: the benchmark harness times its runs on the wall",
			"cmd/": "entry points: they time their own runs", "examples/": "entry points: demos that wait on a live server",
			"tools/": "entry points: developer tools outside the product", "internal/testutil/": "a test tool: polling deadlines",
			"internal/experiments/":    "the harness's run timings: it measures how long a run takes on the wall",
			"internal/tlsproxy/":       "a test tool: certificate validity and bandwidth pacing on real sockets",
			"pkg/gdprkv/conn.go":       "socket deadlines, which the kernel keeps on the wall clock",
			"pkg/gdprkv/pool.go":       "the idle age of a pooled connection, which the network ages on the wall clock",
			"internal/audit/socket.go": "the collector's dial backoff and write deadline",
		}},
	{name: "the audit trail opens no file of its own", in: []string{"internal/audit/"}, pkg: "os", ids: re(`.`), uses: []string{"os.Open(p)"},
		why: "the AOF and the trail append, encrypt, fsync and fail through one aof.File (DESIGN.md §11): open trail files through aof.OpenFile / aof.OpenReader"},
	{name: "only internal/aof builds the at-rest cipher", ids: re(`^NewOffsetCipher$`), uses: []string{"cryptoutil.NewOffsetCipher(k)"},
		why:   "encrypt files through aof.File, the seam a filesystem abstraction will replace",
		allow: map[string]string{"internal/aof/": "aof.File's cipher", "internal/cryptoutil/": "the cipher itself"}},
	{name: "no wrapped key is journaled", in: []string{"internal/", "cmd/", "pkg/"}, ids: re(`^opKey$`), strs: re(`^GKEY$`), uses: []string{"opKey", `"GKEY"`},
		why: "a data key has one durable home, the key file beside the AOF (aof.Keys, DESIGN.md §13), so an erasure that zeroes its slot leaves no wrapped copy in the log: GKEY never reaches appendLog, the log's Append or a compaction's emit",
		allow: map[string]string{
			"internal/core/store.go:": "its declaration", "internal/core/replicated.go:applyRecord": "a replica receives one",
			"internal/core/store.go:replay": "replay refuses one in the AOF", "internal/core/replication.go:StreamSnapshot:emit": "a full sync's key half",
			"internal/core/store.go:sealerFor:h.AppendOp": "the replication stream's send of a new key",
		}},
	{name: "no objection delta is journaled", in: product, refusal: true, uses: []string{`"GOBJ"`, "opMeta", "SetRecordIf"},
		ids: re(`^(op(Object|Unobj|Meta)|SetRecordIf)$`), strs: re(`^(GOBJ|GUNOBJ|GMETA)$`),
		why: "a subject's standing objections are its owner record (DESIGN.md §5.2), written whole as a GREC by setOwner, and live nowhere else: nothing writes or folds a GOBJ/GUNOBJ delta or a record-level GMETA, and nothing restamps a record (SetRecordIf)"},
	{name: "one write path", in: []string{"internal/core/"}, ids: re(`^SetRecorded$`), uses: []string{"s.db.SetRecorded(k)"},
		why:   "a compliant record has one way into the engine (DESIGN.md §5): seal and install through Store.install, or setOwner for an owner record",
		allow: map[string]string{"internal/core/store.go:install": "", "internal/core/rights.go:setOwner": ""}},
	{name: "no rights fan-out", in: product, uses: []string{"s.clusterFanout", `"GETUSERLOCAL"`},
		ids: fanout, strs: fanout,
		why: "a subject lives in one slot (DESIGN.md §10), so one node answers a rights command, routed on its owner like any keyed command: the fan-out, its node-local commands and CLUSTERDOWN stay gone"},
	{name: "one erasure mark", in: product, refusal: true, uses: []string{"k.Reinstate(o)", `"GSHRED"`},
		ids: re(`Reinstate$|ShredAt$|ShredCount$|shredMarks|opReinst|^opShred$`), strs: re(`^GSHRED$`),
		why: "an erasure is one field of the subject's owner record (DESIGN.md §13): the keyring keeps keys only, nothing reinstates an erased subject, and the retired GSHRED is named only where it is refused"},
	{name: "one declaration per exported number", in: []string{"internal/ops/"}, ids: re(`^(Stats|RetentionStats|ErasureStats|Trail|Log|Hub|Engine)$`), uses: []string{"st.Stats()"},
		why: "every number the ops surface publishes is one field of the INFO section registry (internal/server/sections.go, DESIGN.md §14): ops reads InfoSnapshot and CommandStats, no store statistics of its own"},
	{name: "one expiry path", ids: re(`^ActiveExpireCycle$`), uses: []string{"db.ActiveExpireCycle()"},
		why:   "expiry outside the engine runs through core.Store.ExpiryCycle, which audits each reaping cycle (DESIGN.md §5.1)",
		allow: map[string]string{"internal/store/": "the engine's own cycle", "internal/core/store.go": "ExpiryCycle", "internal/experiments/figure2.go": "the paper's Figure 2 drives the engine's cycle itself"}},
	{name: "StartSweeper is StartExpirer", tests: true, ids: re(`^StartSweeper$`), uses: []string{"s.StartSweeper()"},
		why:   "call StartExpirer, whose loop runs the sweep; the alias stays only while bench/ calls it",
		allow: map[string]string{"bench/": "the one caller left", "internal/core/maintain.go": "the alias"}},
	{name: "the trail keeps no plaintext it masked", in: []string{"internal/"}, ids: re(`^(Unmask|(New)?Masker)$`), uses: []string{"t.Unmask(r)", "audit.NewMasker(k)"},
		why: "a masked trail is not a second copy of the names it masks (DESIGN.md §11): Trail.Pseudonym is a pure function, and a reader that needs a name derives it from what the store holds, as Store.Breach does for live subjects"},
	{name: "lockAll's callers", in: []string{"internal/core/"}, ids: re(`^lockAll$`), uses: []string{"s.lockAll()"},
		why: "each caller stops every call in flight, so the list only shrinks: compaction and full sync are to run without it",
		allow: map[string]string{
			"internal/core/locks.go:lockAll": "its declaration", "internal/core/maintain.go:Compact": "", "internal/core/maintain.go:maintain": "",
			"internal/core/replication.go:StreamSnapshot": "", "internal/core/replication.go:Backup": "",
			"internal/core/replication.go:propagateErasure": "", "internal/core/store.go:Delete": "", "internal/core/store.go:Close": "",
		}},
	{name: "no handler re-checks", in: []string{"internal/server/"}, ids: re(`^Enforcing$`), exprs: re(`(?i)actor [!=]= ""|"" [!=]= \S*actor$`),
		uses:  []string{"st.ACL().Enforcing()", `ctx.Core.Actor == ""`, `"" != s.actor`},
		why:   "one gate admits every command (complianceMiddleware, DESIGN.md §3): a handler reads no enforcement flag and tests no actor for AUTH; a command that needs a role is FlagAdmin, or a CLUSTER subcommand marked admin",
		allow: map[string]string{"internal/server/registry.go": "the gate itself"}},
}

// drillFile lists the race drills that `make race` runs.
const drillFile = "race-drills.txt"

// TestGuardrails holds every rule over the repository, and checks that CI runs
// every check through make and every example, fuzz and race drill is wired up.
func TestGuardrails(t *testing.T) {
	findings, err := guard(os.DirFS("../.."))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// guard returns one finding per use that breaks a rule, per CI `run:` not
// make and `ci:` prerequisite CI never runs, per example or Fuzz function with
// no line in its Makefile recipe, and per race drill alternative that matches
// no Test function of its package. It reads no testdata and no dot-directory.
func guard(fsys fs.FS) ([]string, error) {
	var out, fuzzes []string
	tests := map[string][]string{}
	fset := token.NewFileSet()
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return fs.SkipDir
		} else if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, 0)
		if err != nil {
			return err
		}
		out = append(out, check(fset, p, f)...)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && strings.HasSuffix(p, "_test.go") && strings.HasPrefix(fd.Name.Name, "Test") {
				tests[path.Dir(p)] = append(tests[path.Dir(p)], fd.Name.Name)
			} else if ok && strings.HasSuffix(p, "_test.go") && strings.HasPrefix(fd.Name.Name, "Fuzz") {
				fuzzes = append(fuzzes, path.Join(path.Dir(p), fd.Name.Name))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	mk, err := fs.ReadFile(fsys, "Makefile")
	ci, cierr := fs.ReadFile(fsys, ".github/workflows/ci.yml")
	if err = errors.Join(err, cierr); err != nil {
		return nil, err
	}
	target := func(name string) [2]string { // a Makefile target's prerequisites and recipe
		if m := re(`(?m)^` + name + `:(.*)((?:\n\t.*)*)`).FindStringSubmatch(string(mk)); m != nil {
			return [2]string{m[1], m[2]}
		}
		return [2]string{}
	}
	made := " " // the words of CI's make commands and target matrix, each between spaces
	for _, m := range re(`(?m)^[\s-]*(run|target):(.*)$`).FindAllStringSubmatch(string(ci), -1) {
		words := strings.FieldsFunc(m[2], func(r rune) bool { return strings.ContainsRune(" ,[]", r) })
		if m[1] == "run" && (len(words) == 0 || words[0] != "make") {
			out = append(out, fmt.Sprintf("ci.yml runs %q: every check is written once, as a Makefile target, and CI runs only make", strings.TrimSpace(m[2])))
		}
		made += strings.Join(words, " ") + " "
	}
	for _, t := range strings.Fields(target("ci")[0]) {
		if !strings.Contains(made, " "+t+" ") {
			out = append(out, fmt.Sprintf("ci.yml never runs 'make %s', a prerequisite of the Makefile's ci target", t))
		}
	}
	examples, _ := fs.ReadDir(fsys, "examples")
	for _, d := range examples {
		if d.IsDir() && !re(`(?m)run \./examples/`+regexp.QuoteMeta(d.Name())+`$`).MatchString(target("e2e")[1]) {
			out = append(out, fmt.Sprintf("examples/%s has no 'run ./examples/%[1]s' line in the Makefile's e2e target: every example runs in CI, so none rots behind a green build", d.Name()))
		}
	}
	for _, f := range fuzzes {
		if dir, name := path.Split(f); !re(`\./` + regexp.QuoteMeta(path.Clean(dir)) + ` .*-fuzz '\^` + name + `\$\$'`).MatchString(target("fuzz")[1]) {
			out = append(out, fmt.Sprintf("%s has no -fuzz '^%s$$' line for ./%s in the Makefile's fuzz target, so CI never fuzzes it", f, name, path.Clean(dir)))
		}
	}
	drills, err := fs.ReadFile(fsys, drillFile)
	for i, line := range strings.Split(string(drills), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		} else if len(f) != 3 {
			out = append(out, fmt.Sprintf("%s:%d: want <count> <package> <-run pattern>", drillFile, i+1))
			continue
		}
		for _, alt := range strings.Split(f[2], "|") {
			m, err := regexp.Compile("(?m)" + alt)
			if err != nil || !m.MatchString(strings.Join(tests[strings.TrimPrefix(f[1], "./")], "\n")) {
				out = append(out, fmt.Sprintf("%s:%d: %s matches no Test function in %s, so the drill runs nothing", drillFile, i+1, alt, f[1]))
			}
		}
	}
	return out, err
}

// check applies every rule covering file rel to f.
func check(fset *token.FileSet, rel string, f *ast.File) []string {
	var out []string
	var active []*rule
	for i := range rules {
		r, in := &rules[i], len(rules[i].in) == 0
		for _, p := range r.in {
			in = in || strings.HasPrefix(rel, p)
		}
		if in && (r.tests || !strings.HasSuffix(rel, "_test.go")) {
			active = append(active, r)
		}
	}
	var refusals []*ast.CaseClause
	callee, local := map[token.Pos]string{}, map[string]string{}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		local[p] = path.Base(p)
		if imp.Name != nil {
			local[p] = imp.Name.Name
		}
	}
	for _, decl := range f.Decls {
		fn := ""
		if d, ok := decl.(*ast.FuncDecl); ok {
			fn = d.Name.Name
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CaseClause: // a case's body follows its list
				if len(n.Body) > 0 && refuses(n.Body[0]) {
					refusals = append(refusals, n)
				}
			case *ast.CallExpr: // a call precedes its arguments
				for _, a := range n.Args {
					callee[a.Pos()] = types.ExprString(n.Fun)
				}
			}
			for _, r := range active {
				name, re := "", r.ids
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && r.pkg != "" && local[r.pkg] == x.Name {
						name = n.Sel.Name
					}
				case *ast.Ident:
					if r.pkg == "" || local[r.pkg] == "." {
						name = n.Name
					}
				case *ast.BinaryExpr:
					name, re = types.ExprString(n), r.exprs
				case *ast.BasicLit:
					if s, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING {
						name, re = s, r.strs
					}
					for _, cc := range refusals {
						if r.refusal && n.Pos() > cc.Case && n.Pos() < cc.Colon {
							re = nil
						}
					}
				}
				if name == "" || re == nil || !re.MatchString(name) {
					continue
				}
				site := rel + ":" + fn
				if c, ok := callee[n.Pos()]; ok {
					site += ":" + c
				}
				if !r.allows(rel, site) {
					out = append(out, fmt.Sprintf("%s:%d: %s in %q breaks %q: %s", rel, fset.Position(n.Pos()).Line, name, fn, r.name, r.why))
				}
			}
			return true
		})
	}
	return out
}

// refuses reports whether s returns or assigns ErrRetiredFormat.
func refuses(s ast.Stmt) (ok bool) {
	switch s.(type) {
	case *ast.ReturnStmt, *ast.AssignStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			id, is := n.(*ast.Ident)
			ok = ok || is && id.Name == "ErrRetiredFormat"
			return true
		})
	}
	return ok
}

// allows reports whether a use in file rel at site may stand.
func (r *rule) allows(rel, site string) bool {
	for s := range r.allow {
		if s == rel || s == site || strings.HasSuffix(s, "/") && strings.HasPrefix(rel, s) {
			return true
		}
	}
	return false
}

type plant struct {
	name  string
	files map[string]string
	want  int
}

// TestGuardrailsFindPlantedUses plants each rule's uses in a scratch module:
// where the rule covers and allows nothing (one finding), outside what it
// covers and at each allowed site (none). A refusal rule's uses are also
// planted in a case that refuses them (none for a literal) and in one whose
// next statement does not (one).
func TestGuardrailsFindPlantedUses(t *testing.T) {
	var cases []plant
	add := func(name, path, src string, want int) {
		cases = append(cases, plant{name, map[string]string{path: src}, want})
	}
	for _, r := range rules {
		if r.why == "" || len(r.uses) == 0 {
			t.Errorf("rule %q needs a reason and a use to plant", r.name)
		}
		at := "internal/planted.go"
		if len(r.in) > 0 {
			at = r.in[0] + "planted.go"
			add(r.name+"/outside", "planted.go", src(r, r.uses[0], "F"), 0)
		}
		for _, use := range r.uses {
			add(r.name+"/"+use, at, src(r, use, "F"), 1)
			if c := "package p\n\nfunc F(n string) error {\n\tswitch n {\n\tcase %s:\n\t\t%s\n\t}\n\treturn nil\n}\n"; r.refusal {
				want := 1 // only a literal may stand in a refusal
				if strings.HasPrefix(use, `"`) {
					want = 0
				}
				add(r.name+"/refused "+use, at, fmt.Sprintf(c, use, "return ErrRetiredFormat"), want)
				add(r.name+"/refused later "+use, at, fmt.Sprintf(c, use, "if n != \"\" {\n\t\t\treturn ErrRetiredFormat\n\t\t}"), 1)
			}
		}
		for site := range r.allow {
			file, fn, ok := strings.Cut(site, ":")
			fn, call, _ := strings.Cut(fn, ":")
			use := r.uses[0]
			if call != "" {
				use = call + "(" + use + ")"
			}
			if !ok {
				file, fn = site, "F"
			}
			if strings.HasSuffix(file, "/") {
				file += "planted.go"
			}
			add(r.name+"/"+site, file, src(r, use, fn), 0)
		}
	}
	add("an allowed function passing to another call", "internal/core/store.go", "package p\n\nfunc sealerFor() { s.appendLog(opKey) }\n", 1)
	add("a test file", "internal/core/x_test.go", "package p\n\nfunc TestX() { s.StartSweeper() }\n", 1)
	add("example with no run line", "examples/demo/main.go", "package main\n", 1)
	add("bare go test step in CI", ".github/workflows/ci.yml", "      - run: go test ./...\n", 1)
	add("fuzz function with no line", "internal/resp/x_test.go", "package p\n\nfunc FuzzX(f *testing.F) {}\n", 1)
	cases = append(cases,
		plant{"example with a run line", map[string]string{"examples/demo/main.go": "package main\n", "Makefile": "e2e:\n\t$(GO) run ./examples/demo\n"}, 0},
		plant{"ci target that CI never runs", map[string]string{"Makefile": "ci: fmt race\n", ".github/workflows/ci.yml": "      - run: make fmt\n"}, 1},
		plant{"every ci target run by make", map[string]string{"Makefile": "ci: fmt race\n", ".github/workflows/ci.yml": "        target: [race]\n      - run: make fmt\n"}, 0},
		plant{"fuzz function with a line", map[string]string{"internal/resp/x_test.go": "package p\n\nfunc FuzzX(f *testing.F) {}\n", "Makefile": "fuzz:\n\t$(GO) test ./internal/resp -run '^$$' -fuzz '^FuzzX$$'\n"}, 0},
		plant{"drill of a renamed test", map[string]string{drillFile: "10 ./internal/core TestFoo|TestBar\n", "internal/core/x_test.go": "package p\n\nfunc TestFoo2(t *testing.T) {}\n"}, 1},
		plant{"drill of a test", map[string]string{drillFile: "10 ./internal/core TestFoo\n", "internal/core/x_test.go": "package p\n\nfunc TestFoo(t *testing.T) {}\n"}, 0})
	runPlants(t, cases)
}

// src is a file that makes use in function fn ("" for the top level), with
// the import the rule's package needs.
func src(r rule, use, fn string) string {
	s := "package p\n\n"
	if r.pkg != "" {
		s += fmt.Sprintf("import %q\n\n", r.pkg)
	}
	if fn == "" {
		return s + "var _ = " + use + "\n"
	}
	return s + "func " + fn + "() { _ = " + use + " }\n"
}

// TestWallReadGuardFindsPlantedCalls plants the clock rule's cases.
func TestWallReadGuardFindsPlantedCalls(t *testing.T) {
	const now = "package p\n\nimport \"time\"\n\nfunc F() { _ = time.Now() }\n"
	at := func(path, src string) map[string]string { return map[string]string{path: src} }
	runPlants(t, []plant{
		{"time.Now in product code", at("internal/core/planted.go", now), 1},
		{"aliased Since", at("internal/server/planted.go", "package p\n\nimport t \"time\"\n\nfunc F(x t.Time) t.Duration { return t.Since(x) }\n"), 1},
		{"dot-imported Until", at("internal/ops/planted.go", "package p\n\nimport . \"time\"\n\nfunc F(x Time) Duration { return Until(x) }\n"), 1},
		{"excepted directory", at("cmd/planted/main.go", now), 0},
		{"excepted file", at("pkg/gdprkv/conn.go", now), 0},
		{"method of another value", at("internal/core/planted.go", "package p\n\nimport \"time\"\n\ntype c struct{}\n\nfunc (c) Now() time.Time { return time.Time{} }\n\nfunc F() { _ = c{}.Now() }\n"), 0},
		{"test file", at("internal/core/planted_test.go", now), 0},
		{"testdata", at("internal/core/testdata/planted.go", now), 0},
		{"nested module", at("bench/planted.go", now), 0},
	})
}

// runPlants lays each case's files over an otherwise empty module (with a
// nested bench/ module, an empty Makefile, CI workflow and drill list) and counts
// what guard finds there.
func runPlants(t *testing.T, cases []plant) {
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fsys := fstest.MapFS{}
			for p, s := range map[string]string{"go.mod": "module planted\n", "bench/go.mod": "module bench\n", "Makefile": "", ".github/workflows/ci.yml": "", drillFile: ""} {
				fsys[p] = &fstest.MapFile{Data: []byte(s)}
			}
			for p, s := range c.files {
				fsys[p] = &fstest.MapFile{Data: []byte(s)}
			}
			if got, err := guard(fsys); err != nil || len(got) != c.want {
				t.Fatalf("findings = %q (%v), want %d", got, err, c.want)
			}
		})
	}
}

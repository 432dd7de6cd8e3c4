//go:build !race

package tdmagic

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadCodeAllowed names the package-level functions and types, and the
// methods, under internal/ that may stay although no non-test file of the
// module uses them, each with the reason it stays.
var deadCodeAllowed = map[string]string{
	"tdmagic/internal/core.ResolveProvenance": "the planned quality telemetry maps provenance to picture rectangles with it",
	"tdmagic/internal/dataset.CountEdgeTypes": "helper that several packages' tests share",
	"tdmagic/internal/geom.CrossPoint":        "helper that several packages' tests share",
	"tdmagic/internal/imgproc.ThresholdW":     "deprecated forward that tdbench/traced.go compiles against",
	"tdmagic/internal/imgproc.OtsuThresholdW": "deprecated forward that tdbench/traced.go compiles against",
	"tdmagic/internal/morph.Rect":             "helper that several packages' tests share",
	"tdmagic/internal/nn.Softmax":             "reference that SoftmaxInto is compared against",
	"tdmagic/internal/obs.ParseExport":        "helper that several packages' tests share",
	"tdmagic/internal/ocr.gridDist":           "reference that gridDistBounded is compared against",

	// References that tests compare production code against.
	"tdmagic/internal/nn.(*Net).Logits":                    "reference that LogitsScratch is compared against",
	"tdmagic/internal/nn.(*Net).Predict":                   "reference that PredictScratch is compared against",
	"tdmagic/internal/trace.(*Signal).Edges":               "reference that the monitor's streaming edge detection is compared against",
	"tdmagic/internal/trace.(*Signal).Crossings":           "reference that the monitor's streaming crossings are compared against",
	"tdmagic/internal/spo.(*SPO).Less":                     "reference for the strict partial order that SPO and diagram tests check",
	"tdmagic/internal/imgproc.(*Binary).At":                "per-pixel reference read that the packed kernels' differential tests compare against",
	"tdmagic/internal/trace.(*Signal).Value":               "reads a decoded waveform at a time; vcd's decoding tests check values with it",
	"tdmagic/internal/core.(*Pipeline).Analyze":            "the perception stages alone, which ci.sh's BenchmarkAnalyze times",
	"tdmagic/internal/ocr.(*Model).RecognizeLine":          "the recogniser without region detection, which OCR tests read single lines with",
	"tdmagic/internal/jobs.(*Service).Wait":                "tests block until a job ends with it; HTTP clients poll the job instead",
	"tdmagic/internal/store.(*Store).Count":                "tests read the store's entry count with it; the log store must replace it",
	"tdmagic/internal/store.(*Store).Remove":               "tests drop an entry with it; the log store must replace it",
	"tdmagic/internal/obs.(*Recorder).Len":                 "tests read the flight recorder's fill with it",
	"tdmagic/internal/obs.(*Export).Span":                  "tests look up an exported span by name with it",
	"tdmagic/internal/metrics.(*Histogram).Observe":        "tests fill a histogram without exemplars with it",
	"tdmagic/internal/metrics.(*Histogram).BucketExemplar": "tests read a bucket's exemplar with it",
	"tdmagic/internal/serve.(*Server).Handler":             "tests mount the server on httptest with it; tdserve listens through Start",
	"tdmagic/internal/serve.(*Server).Registry":            "tests scrape the server's metrics registry with it",
	"tdmagic/internal/polytope.(*System).Feasible":         "tests check that sampled points satisfy the system with it",
	"tdmagic/internal/polytope.(*System).Violations":       "Feasible's per-constraint form, which tests list a point's broken constraints with",
	"tdmagic/internal/imgproc.(*Binary).Clone":             "tests and kernel benchmarks copy a binary image with it before mutating it",
	"tdmagic/internal/imgproc.(*Binary).Fill":              "tests build uniform binary images with it",
	"tdmagic/internal/render.(*Canvas).W":                  "tests read a canvas's size with it",
	"tdmagic/internal/render.(*Canvas).H":                  "tests read a canvas's size with it",
	"tdmagic/internal/render.(*Canvas).Ink":                "tests read a canvas as a binary image with it",
	"tdmagic/internal/render.(*Canvas).EncodePNG":          "tests encode a rendered picture with it",

	// What tdbench/, a separate module, compiles against.
	"tdmagic/internal/obs.(*Trace).RequestID":        "tdbench/traced.go reads it",
	"tdmagic/internal/obs.(*Span).StartChild":        "tdbench/traced.go calls it",
	"tdmagic/internal/jobs.(*Service).Submit":        "tdbench/traced.go calls it",
	"tdmagic/internal/tdgen.(*Generator).GenerateAt": "tdbench generates its picture pool with it",
	"tdmagic/internal/sed.(*Model).DetectCtxW":       "deprecated forward that tdbench/traced.go compiles against",
}

// TestNoDeadDeclarations type-checks every non-test package of the module
// and fails on each package-level function, type or method under internal/
// that no non-test file uses, apart from deadCodeAllowed. A use inside the
// declaration itself, or inside a method of the type, does not count; a
// method of a generic type counts the uses of its instantiations. A method
// that implements an interface method is exempt: the interfaces are the
// ones the module's non-test code names or spells (its own, the standard
// library's it passes values as, anonymous ones in type assertions) and
// implicitInterfaces, which the standard library looks for by itself. The
// benchmark module (tdbench/) is a separate module and does not count as a
// user either.
func TestNoDeadDeclarations(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "-export", "-pgo=off",
		"-json=ImportPath,Dir,GoFiles,Export,Standard", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard                bool
	}
	var pkgs []listed
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		exports[p.ImportPath] = p.Export
		if !p.Standard {
			pkgs = append(pkgs, p) // go list -deps lists dependencies first
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}

	// A candidate is a package-level func or type, or a method, under
	// internal/; own holds the source ranges whose uses of it do not count.
	type candidate struct {
		name string
		pos  token.Pos
		own  [][2]token.Pos
		used bool
	}
	cands := map[types.Object]*candidate{}
	var uses []map[*ast.Ident]types.Object
	var methods []*types.Func
	ifaces := map[*types.Interface]bool{}
	for _, name := range implicitInterfaces {
		obj := types.Universe.Lookup(name)
		if i := strings.LastIndex(name, "."); i >= 0 {
			pkg, err := std.Import(name[:i])
			if err != nil {
				t.Fatal(err)
			}
			obj = pkg.Scope().Lookup(name[i+1:])
		}
		ifaces[obj.Type().Underlying().(*types.Interface)] = true
	}
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{}}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatal(err)
		}
		checked[p.ImportPath] = pkg
		uses = append(uses, info.Uses)
		for _, tv := range info.Types {
			if i, ok := tv.Type.Underlying().(*types.Interface); ok && i.NumMethods() > 0 {
				ifaces[i] = true
			}
		}
		if !strings.HasPrefix(p.ImportPath, "tdmagic/internal/") {
			continue
		}
		add := func(id *ast.Ident, node ast.Node) {
			if obj := info.Defs[id]; obj != nil && id.Name != "_" {
				cands[obj] = &candidate{name: p.ImportPath + "." + id.Name, pos: id.Pos(),
					own: [][2]token.Pos{{node.Pos(), node.End()}}}
			}
		}
		var decls []*ast.FuncDecl
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						decls = append(decls, d)
					} else if d.Name.Name != "init" {
						add(d.Name, d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							add(ts.Name, ts)
						}
					}
				}
			}
		}
		for _, m := range decls {
			recv, star := m.Recv.List[0].Type, ""
			if s, ok := recv.(*ast.StarExpr); ok {
				recv, star = s.X, "*"
			}
			switch r := recv.(type) { // generic receivers: T[P] and T[P, Q]
			case *ast.IndexExpr:
				recv = r.X
			case *ast.IndexListExpr:
				recv = r.X
			}
			id := recv.(*ast.Ident)
			if c := cands[info.Uses[id]]; c != nil {
				c.own = append(c.own, [2]token.Pos{m.Pos(), m.End()})
			}
			if obj, ok := info.Defs[m.Name].(*types.Func); ok && m.Name.Name != "_" {
				name := id.Name + "." + m.Name.Name
				if star != "" {
					name = "(*" + id.Name + ")." + m.Name.Name
				}
				cands[obj] = &candidate{name: p.ImportPath + "." + name, pos: m.Name.Pos(),
					own: [][2]token.Pos{{m.Pos(), m.End()}}}
				methods = append(methods, obj)
			}
		}
	}

	// A method that implements an interface method is reached through the
	// interface, where a use names the interface's method instead.
	for _, m := range methods {
		recv := m.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if recv.(*types.Named).TypeParams().Len() > 0 {
			continue // Implements needs an instantiated type
		}
		for i := range ifaces {
			if implementsMethod(types.NewPointer(recv), i, m.Name()) {
				cands[m].used = true
				break
			}
		}
	}

	for _, u := range uses {
		for id, obj := range u {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			c := cands[obj]
			if c == nil || c.used {
				continue
			}
			inside := false
			for _, r := range c.own {
				inside = inside || (r[0] <= id.Pos() && id.Pos() < r[1])
			}
			c.used = !inside
		}
	}

	var dead []string
	seen := map[string]bool{}
	for _, c := range cands {
		seen[c.name] = true
		if _, ok := deadCodeAllowed[c.name]; ok {
			if c.used {
				t.Errorf("%s is used now; remove it from deadCodeAllowed", c.name)
			}
		} else if !c.used {
			dead = append(dead, fset.Position(c.pos).String()+": "+c.name)
		}
	}
	for name := range deadCodeAllowed {
		if !seen[name] {
			t.Errorf("deadCodeAllowed names %s, which is not declared", name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no non-test file uses %s", d)
	}
}

// implicitInterfaces are the standard-library interfaces that the standard
// library itself looks for (fmt finds String and Error, encoding/json the
// marshalers, io.Copy WriterTo and ReaderFrom, sort and net/http their
// interfaces), so a method may implement one that no module file names.
var implicitInterfaces = []string{
	"error",
	"fmt.Stringer",
	"encoding.TextMarshaler",
	"encoding.TextUnmarshaler",
	"encoding/json.Marshaler",
	"encoding/json.Unmarshaler",
	"io.Reader",
	"io.Writer",
	"io.Closer",
	"io.ReaderFrom",
	"io.WriterTo",
	"net/http.Handler",
	"sort.Interface",
}

// implementsMethod reports whether t implements the interface i and i has a
// method called name.
func implementsMethod(t types.Type, i *types.Interface, name string) bool {
	for j := 0; j < i.NumMethods(); j++ {
		if i.Method(j).Name() == name {
			return types.Implements(t, i)
		}
	}
	return false
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

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

// deadCodeAllowed names the package-level functions and types under
// internal/ that may stay although no non-test file of the module uses
// them, each with the reason it stays.
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
}

// TestNoDeadDeclarations type-checks every non-test package of the module
// and fails on each package-level function or type under internal/ that no
// non-test file uses, apart from deadCodeAllowed. A use inside the
// declaration itself, or inside a method of the type, does not count. The
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

	// A candidate is a package-level func or type under internal/; own holds
	// the source ranges whose uses of it do not count.
	type candidate struct {
		name string
		pos  token.Pos
		own  [][2]token.Pos
		used bool
	}
	cands := map[types.Object]*candidate{}
	var uses []map[*ast.Ident]types.Object
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatal(err)
		}
		checked[p.ImportPath] = pkg
		uses = append(uses, info.Uses)
		if !strings.HasPrefix(p.ImportPath, "tdmagic/internal/") {
			continue
		}
		add := func(id *ast.Ident, node ast.Node) {
			if obj := info.Defs[id]; obj != nil && id.Name != "_" {
				cands[obj] = &candidate{name: p.ImportPath + "." + id.Name, pos: id.Pos(),
					own: [][2]token.Pos{{node.Pos(), node.End()}}}
			}
		}
		var methods []*ast.FuncDecl
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						methods = append(methods, d)
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
		for _, m := range methods {
			recv := m.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			switch r := recv.(type) { // generic receivers: T[P] and T[P, Q]
			case *ast.IndexExpr:
				recv = r.X
			case *ast.IndexListExpr:
				recv = r.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				if c := cands[info.Uses[id]]; c != nil {
					c.own = append(c.own, [2]token.Pos{m.Pos(), m.End()})
				}
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

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

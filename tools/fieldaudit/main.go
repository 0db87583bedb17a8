//go:build ignore

// Fieldaudit lists what the module's non-test code declares but never
// reads: struct fields that are only ever written (a counter bumped on a
// hot path that nothing reports), and functions, methods and types that
// no non-test code names at all. The linker's dead-code dump (see
// prof/README.md) misses both kinds: it cannot see fields, and it keeps
// an exported method alive whenever its type reaches an interface.
//
// Run it from the module root:
//
//	go run tools/fieldaudit/main.go
//
// A field counts as written, not read, where it is the target of an
// assignment (=, op=, ++, --) or a key in a composite literal. The list
// is a starting point to check by hand: it also names fields read only
// by reflection (encoding/json), methods reached only through an
// interface, and the exported surface of the root package and the types
// it aliases, which stay.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fieldaudit:", err)
		os.Exit(1)
	}
}

func run() error {
	out, err := exec.Command("go", "list", "-json", "./...").Output()
	if err != nil {
		return fmt.Errorf("go list: %w", err)
	}
	pkgs := map[string]*listed{}
	var order []string
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return err
		}
		pkgs[p.ImportPath] = &p
		order = append(order, p.ImportPath)
	}

	// Type-check every package from source (non-test files only) so
	// uses across packages resolve to the declaring objects.
	fset := token.NewFileSet()
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	checked := map[string]*types.Package{}
	var files []*ast.File
	std := importer.Default()
	var check func(string) (*types.Package, error)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if pkgs[path] != nil {
			return check(path)
		}
		return std.Import(path)
	})}
	check = func(path string) (*types.Package, error) {
		if tp, ok := checked[path]; ok {
			return tp, nil
		}
		p := pkgs[path]
		var fs []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			fs = append(fs, f)
		}
		tp, err := conf.Check(path, fset, fs, info)
		if err != nil {
			return nil, err
		}
		checked[path] = tp
		files = append(files, fs...)
		return tp, nil
	}
	for _, path := range order {
		if _, err := check(path); err != nil {
			return err
		}
	}

	// Identifiers that name a field only to store into it.
	writes := map[*ast.Ident]bool{}
	var target func(ast.Expr)
	target = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			writes[x.Sel] = true
			target(x.X)
		case *ast.IndexExpr:
			target(x.X)
		case *ast.ParenExpr:
			target(x.X)
		case *ast.StarExpr:
			target(x.X)
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, l := range x.Lhs {
					target(l)
				}
			case *ast.IncDecStmt:
				target(x.X)
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok {
					writes[id] = true
				}
			}
			return true
		})
	}
	reads := map[types.Object]bool{}
	for id, obj := range info.Uses {
		switch o := obj.(type) {
		case *types.Var:
			obj = o.Origin()
		case *types.Func:
			obj = o.Origin()
		}
		if !writes[id] {
			reads[obj] = true
		}
	}

	var lines []string
	for id, obj := range info.Defs {
		if obj == nil || pkgs[pathOf(obj)] == nil || reads[obj] {
			continue
		}
		var what string
		switch o := obj.(type) {
		case *types.Var:
			if !o.IsField() {
				continue
			}
			what = "field " + o.Pkg().Name() + "." + o.Name()
		case *types.Func:
			if o.Name() == "main" || o.Name() == "init" {
				continue
			}
			what = "func  " + o.FullName()
		case *types.TypeName:
			what = "type  " + o.Pkg().Name() + "." + o.Name()
		default:
			continue
		}
		pos := fset.Position(id.Pos())
		rel, err := filepath.Rel(mustGetwd(), pos.Filename)
		if err != nil {
			rel = pos.Filename
		}
		lines = append(lines, fmt.Sprintf("%s\t%s:%d", what, rel, pos.Line))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
	return nil
}

func pathOf(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func mustGetwd() string {
	d, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return d
}

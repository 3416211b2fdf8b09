// Command apicheck dumps the exported API surface of a Go package directory
// as sorted, canonical one-line declarations. It is the offline fallback
// behind tools/apidiff.sh: golang.org/x/exp/apidiff gives richer
// compatibility analysis, but it cannot be assumed present in a hermetic
// build, so the CI gate diffs this dump against a checked-in baseline
// (api/cliffguard.api) instead. A vanished or changed line is an
// incompatible API change; a new line is a compatible addition.
//
// Usage:
//
//	apicheck <package-dir>
//	apicheck -routes
//
// With -routes it instead dumps the cliffguardd /v1 HTTP route table (from
// internal/serve.RouteTable, the same table that registers the mux) as
// sorted "METHOD PATTERN [request=T] response=T" lines, diffed against
// api/http.api. A vanished or changed line is an incompatible wire change; a
// new line is a compatible addition.
//
// Test files and files excluded by build constraints we don't evaluate are
// skipped (only *_test.go is filtered; the packages under api/ review are
// constraint-free).
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"slices"
	"sort"
	"strings"

	"cliffguard/internal/serve"
)

func main() {
	if len(os.Args) == 2 && os.Args[1] == "-routes" {
		for _, l := range routeLines() {
			fmt.Println(l)
		}
		return
	}
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: apicheck <package-dir> | apicheck -routes")
		os.Exit(2)
	}
	lines, err := surface(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "apicheck:", err)
		os.Exit(1)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
}

// routeLines renders the /v1 route table one canonical line per endpoint.
func routeLines() []string {
	var out []string
	for _, rt := range serve.RouteTable() {
		line := rt.Method + " " + rt.Pattern
		if rt.Request != "" {
			line += " request=" + rt.Request
		}
		line += " response=" + rt.Response
		out = append(out, line)
	}
	// RouteTable is already (pattern, method)-sorted; re-sort lexically so
	// the baseline diffs with plain comm like the Go surface does.
	sort.Strings(out)
	return out
}

// surface returns the sorted exported declarations of the package in dir.
func surface(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	var lines []string
	for name, pkg := range pkgs {
		if strings.HasSuffix(name, "_test") {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				lines = append(lines, declLines(fset, name, decl)...)
			}
		}
	}
	sort.Strings(lines)
	return slices.Compact(lines), nil
}

func declLines(fset *token.FileSet, pkg string, decl ast.Decl) []string {
	var out []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		recv := ""
		if d.Recv != nil && len(d.Recv.List) > 0 {
			t := typeString(fset, d.Recv.List[0].Type)
			// Methods on unexported receivers are not part of the surface.
			if !ast.IsExported(strings.TrimPrefix(t, "*")) {
				return nil
			}
			recv = "(" + t + ") "
		}
		out = append(out, fmt.Sprintf("%s: func %s%s%s", pkg, recv, d.Name.Name,
			strings.TrimPrefix(typeString(fset, d.Type), "func")))
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				assign := " "
				if s.Assign.IsValid() {
					assign = " = "
				}
				out = append(out, fmt.Sprintf("%s: type %s%s%s",
					pkg, s.Name.Name, assign, typeString(fset, exportedOnly(s.Type))))
			case *ast.ValueSpec:
				kw := "var"
				if d.Tok == token.CONST {
					kw = "const"
				}
				typ := ""
				if s.Type != nil {
					typ = " " + typeString(fset, s.Type)
				}
				for _, n := range s.Names {
					if n.IsExported() {
						out = append(out, fmt.Sprintf("%s: %s %s%s", pkg, kw, n.Name, typ))
					}
				}
			}
		}
	}
	return out
}

// exportedOnly strips unexported fields/methods from struct and interface
// bodies so that internal reshuffles do not churn the baseline.
func exportedOnly(t ast.Expr) ast.Expr {
	switch tt := t.(type) {
	case *ast.StructType:
		return &ast.StructType{Fields: exportedFields(tt.Fields, false)}
	case *ast.InterfaceType:
		return &ast.InterfaceType{Methods: exportedFields(tt.Methods, true)}
	}
	return t
}

func exportedFields(fl *ast.FieldList, keepEmbedded bool) *ast.FieldList {
	if fl == nil {
		return nil
	}
	out := &ast.FieldList{}
	for _, f := range fl.List {
		if len(f.Names) == 0 {
			if keepEmbedded {
				out.List = append(out.List, &ast.Field{Type: f.Type})
			}
			continue
		}
		var names []*ast.Ident
		for _, n := range f.Names {
			if n.IsExported() {
				names = append(names, ast.NewIdent(n.Name))
			}
		}
		if len(names) > 0 {
			out.List = append(out.List, &ast.Field{Names: names, Type: f.Type})
		}
	}
	return out
}

func typeString(fset *token.FileSet, t ast.Expr) string {
	var sb strings.Builder
	if err := printer.Fprint(&sb, fset, t); err != nil {
		return fmt.Sprintf("<%v>", err)
	}
	// Collapse multi-line struct/interface bodies to one canonical line.
	fields := strings.Fields(sb.String())
	return strings.Join(fields, " ")
}

package sflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// routingFields are the routing values qos.Options declares. Every layer that
// builds a table takes the whole struct (session.Options is an alias of it,
// daemon.Options embeds it, reopt.PlannerConfig holds it as Routing), so a
// struct that declares one of them again is a copy some layer must forward
// field by field, and a dropped field there compiles and passes silently.
var routingFields = map[string]bool{"Workers": true, "Lazy": true, "MaxRows": true}

// routingFieldAllowlist names the struct fields outside internal/qos that
// may carry a routing name, keyed "<import path>.<type>.<field>", each with
// its reason.
var routingFieldAllowlist = map[string]string{
	"sflow.SolveOptions.Workers":                "the benchmark harness, a separate module, builds SolveOptions with keyed literals",
	"sflow.SolveOptions.Lazy":                   "the benchmark harness, a separate module, builds SolveOptions with keyed literals",
	"sflow/internal/experiments.Config.Workers": "a different value: the fan-out of sweep cells, not of a table",
}

// TestRoutingFieldsDeclaredOnce parses every non-test Go file of the module
// outside internal/qos and benchmark/ and fails on a struct field named
// Workers, Lazy or MaxRows that the allowlist does not name, and on an
// allowlist entry no struct declares any more.
func TestRoutingFieldsDeclaredOnce(t *testing.T) {
	fset := token.NewFileSet()
	seen := map[string]bool{}
	var stray []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") ||
				path == "benchmark" || path == filepath.Join("internal", "qos") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "sflow"
		if dir := filepath.Dir(path); dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		named := map[*ast.StructType]string{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					named[st] = n.Name.Name
				}
			case *ast.StructType:
				typ, ok := named[n]
				if !ok {
					typ = "<anonymous struct>"
				}
				for _, field := range n.Fields.List {
					for _, name := range field.Names {
						if !routingFields[name.Name] {
							continue
						}
						key := pkg + "." + typ + "." + name.Name
						if _, ok := routingFieldAllowlist[key]; ok {
							seen[key] = true
						} else {
							stray = append(stray, key+" ("+fset.Position(name.Pos()).String()+")")
						}
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stray {
		t.Errorf("%s restates a qos.Options routing field: take a qos.Options (or embed one) instead", s)
	}
	var stale []string
	for key := range routingFieldAllowlist {
		if !seen[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("allowlist entry %s matches no struct field any more: remove it", key)
	}
}

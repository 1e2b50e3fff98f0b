package p4runpro

// TestDocLinks is the doc-link checker the CI doc step runs: every relative
// link in README.md and docs/*.md must resolve to a file or directory in the
// repository, so documentation reorganizations can't silently strand
// readers. External (scheme-prefixed) links and intra-page anchors are out
// of scope.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

func TestDocLinks(t *testing.T) {
	files := []string{"README.md"}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, docs...)
	if len(files) < 2 {
		t.Fatalf("expected README.md and docs/*.md, found %v", files)
	}
	for _, f := range files {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external
			}
			target = strings.SplitN(target, "#", 2)[0]
			if target == "" {
				continue // pure anchor
			}
			resolved := filepath.Join(filepath.Dir(f), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: dead link %q (resolved %s)", f, m[1], resolved)
			}
		}
	}
}

// docIdent matches a back-quoted dotted Go name whose second part is
// exported: pkg.Name, Type.Member or pkg.Type.Member, optionally called.
var docIdent = regexp.MustCompile("`([A-Za-z_]\\w*\\.[A-Z]\\w*(?:\\.[A-Za-z_]\\w*)?)(?:\\([^`]*\\))?`")

// TestDocIdentifiers checks that the Go names README.md and docs/*.md
// mention still exist: a docIdent whose first part is a package or a type
// declared in this repository must resolve against the declarations of
// every Go file in it, tests included. bench/ is a module of its own and
// is not scanned.
func TestDocIdentifiers(t *testing.T) {
	d := collectDecls(t)
	files, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, f := range append(files, "README.md") {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docIdent.FindAllStringSubmatch(string(body), -1) {
			ok, checked := d.resolve(strings.Split(m[1], "."))
			if !checked {
				continue
			}
			n++
			if !ok {
				t.Errorf("%s: %s names nothing declared in the repository", f, m[0])
			}
		}
	}
	if n < 50 {
		t.Fatalf("checked only %d references; is the pattern stale?", n)
	}
}

// decls indexes the repository's declarations by name.
type decls struct {
	pkgs    map[string]map[string]bool // package name -> top-level names
	members map[string]map[string]bool // "Type" and "pkg.Type" -> fields and methods
	embeds  map[string][]string        // "Type" and "pkg.Type" -> embedded type names
}

// resolve reports whether a dotted name resolves, and whether it was
// checked at all: only names whose first part is a repository package or
// type are.
func (d decls) resolve(parts []string) (ok, checked bool) {
	if names, isPkg := d.pkgs[parts[0]]; isPkg {
		if len(parts) == 2 || !names[parts[1]] {
			return names[parts[1]], true
		}
		return d.has(parts[0]+"."+parts[1], parts[2]), true
	}
	if _, isType := d.members[parts[0]]; isType {
		return d.has(parts[0], parts[1]), true
	}
	return false, false
}

// has reports whether typ has member, declared or promoted from an
// embedded type.
func (d decls) has(typ, member string) bool {
	seen := make(map[string]bool)
	var walk func(typ string) bool
	walk = func(typ string) bool {
		if seen[typ] {
			return false
		}
		seen[typ] = true
		if d.members[typ][member] {
			return true
		}
		for _, e := range d.embeds[typ] {
			if walk(e) {
				return true
			}
		}
		return false
	}
	return walk(typ)
}

func collectDecls(t *testing.T) decls {
	t.Helper()
	d := decls{pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}, embeds: map[string][]string{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != "." && (path == "bench" || strings.HasPrefix(e.Name(), ".")) {
			return filepath.SkipDir
		}
		if e.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		d.add(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func (d decls) add(f *ast.File) {
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	if d.pkgs[pkg] == nil {
		d.pkgs[pkg] = map[string]bool{}
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				d.pkgs[pkg][decl.Name.Name] = true
			} else {
				d.member(pkg, typeName(decl.Recv.List[0].Type), decl.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, name := range spec.Names {
						d.pkgs[pkg][name.Name] = true
					}
				case *ast.TypeSpec:
					d.addType(pkg, spec)
				}
			}
		}
	}
}

// addType records a type with its fields, interface methods and embedded
// types.
func (d decls) addType(pkg string, spec *ast.TypeSpec) {
	typ := spec.Name.Name
	d.pkgs[pkg][typ] = true
	d.member(pkg, typ, "")
	var fields *ast.FieldList
	switch tt := spec.Type.(type) {
	case *ast.StructType:
		fields = tt.Fields
	case *ast.InterfaceType:
		fields = tt.Methods
	default:
		return
	}
	for _, field := range fields.List {
		for _, name := range field.Names {
			d.member(pkg, typ, name.Name)
		}
		if len(field.Names) == 0 {
			embedded := typeName(field.Type)
			d.member(pkg, typ, embedded)
			d.embeds[typ] = append(d.embeds[typ], embedded)
			d.embeds[pkg+"."+typ] = append(d.embeds[pkg+"."+typ], embedded)
		}
	}
}

func (d decls) member(pkg, typ, name string) {
	for _, key := range []string{typ, pkg + "." + typ} {
		if d.members[key] == nil {
			d.members[key] = map[string]bool{}
		}
		d.members[key][name] = true
	}
}

// typeName is the bare name of a receiver or embedded type expression.
func typeName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	}
	return ""
}

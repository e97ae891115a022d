package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// Struct index
//
// The field-coverage analyzers both start from the same question: "which
// named struct types exist in the loaded packages, where are their
// fields declared, and what do the field types refer to?" StructIndex
// answers it from the AST side — field positions and tags come from the
// declaration, which is the only place an escape directive can legally
// sit — with the type checker consulted only to resolve a field's type
// expression to the named struct it mentions.

// StructDecl is one named struct type declaration in a loaded package.
type StructDecl struct {
	Pkg    *Package
	Name   string
	Fields []FieldDecl

	fieldLines map[int]bool // lazily built by FieldDirective
}

// FieldDirective looks up a field-scope directive for fld: trailing on
// the field's own line, or alone on the line above — but never inherited
// from a line that declares another field of the struct, so a trailing
// escape on one field cannot silently widen to the field below it.
func (s *StructDecl) FieldDirective(dirs *DirIndex, fld FieldDecl, name string) (Directive, bool) {
	pp := s.Pkg.Fset.Position(fld.Pos())
	if d, ok := dirs.findOn(pp.Filename, pp.Line, name); ok {
		return d, true
	}
	if s.fieldLines == nil {
		s.fieldLines = map[int]bool{}
		for _, f := range s.Fields {
			s.fieldLines[s.Pkg.Fset.Position(f.Pos()).Line] = true
		}
	}
	if s.fieldLines[pp.Line-1] {
		return Directive{}, false
	}
	return dirs.findOn(pp.Filename, pp.Line-1, name)
}

// Ref names the declared type.
func (s *StructDecl) Ref() FieldRef {
	return FieldRef{Pkg: s.Pkg.PkgPath, Type: s.Name}
}

// FieldDecl is one field of a StructDecl. A declaration naming several
// fields ("a, b int") yields one FieldDecl per name.
type FieldDecl struct {
	Name     string
	Ident    *ast.Ident // nil for embedded fields
	Type     ast.Expr
	Tag      string // unquoted struct tag, "" if none
	Embedded bool
}

// Pos returns the position of the field name (or of the type, for
// embedded fields).
func (f FieldDecl) Pos() token.Pos {
	if f.Ident != nil {
		return f.Ident.Pos()
	}
	return f.Type.Pos()
}

// StructIndex maps FieldRef{Pkg, Type}.String() of every named struct
// declared in the loaded packages to its declaration.
type StructIndex map[string]*StructDecl

// BuildStructIndex scans every loaded package.
func BuildStructIndex(pkgs []*Package) StructIndex {
	ix := StructIndex{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					sd := &StructDecl{Pkg: pkg, Name: ts.Name.Name}
					for _, fld := range st.Fields.List {
						tag := ""
						if fld.Tag != nil {
							tag, _ = strconv.Unquote(fld.Tag.Value)
						}
						if len(fld.Names) == 0 {
							sd.Fields = append(sd.Fields, FieldDecl{
								Name: embeddedName(fld.Type), Type: fld.Type, Tag: tag, Embedded: true,
							})
							continue
						}
						for _, name := range fld.Names {
							sd.Fields = append(sd.Fields, FieldDecl{
								Name: name.Name, Ident: name, Type: fld.Type, Tag: tag,
							})
						}
					}
					ix[sd.Ref().String()] = sd
				}
			}
		}
	}
	return ix
}

// embeddedName extracts the implicit field name of an embedded type
// expression (T, *T, pkg.T, *pkg.T).
func embeddedName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return embeddedName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.IndexExpr: // generic instantiation T[X]
		return embeddedName(t.X)
	case *ast.IndexListExpr:
		return embeddedName(t.X)
	}
	return ""
}

// NamedStructRef resolves the type of expression e (a field type, an
// argument, a literal) in pkg to the named struct type it mentions,
// looking through pointers, slices, arrays, and map values. ok is false
// when the type is not a named struct — basic types, interfaces, maps of
// non-structs, funcs, channels.
func NamedStructRef(pkg *Package, e ast.Expr) (FieldRef, bool) {
	tv, ok := pkg.Info.Types[e]
	if !ok {
		return FieldRef{}, false
	}
	t := tv.Type
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Slice:
			t = u.Elem()
			continue
		case *types.Array:
			t = u.Elem()
			continue
		case *types.Map:
			t = u.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return FieldRef{}, false
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return FieldRef{}, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return FieldRef{}, false
	}
	return FieldRef{Pkg: obj.Pkg().Path(), Type: obj.Name()}, true
}

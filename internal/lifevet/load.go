package lifevet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
)

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Standard   bool
	Export     string
	GoFiles    []string
	Imports    []string
	Module     *struct {
		Path string
		Main bool
	}
	Error *struct {
		Err string
	}
}

// Package is one type-checked main-module package: its syntax trees plus
// the go/types objects the analyzers resolve against.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Module is the loaded main module: every package the requested patterns
// cover, type-checked from source in dependency order (so cross-package
// references resolve to identical type objects).
type Module struct {
	Path     string
	Dir      string
	Fset     *token.FileSet
	Packages []*Package

	byPath map[string]*Package
}

// PackagesInScope returns the loaded packages whose import path matches
// one of bases: equal to it, ending in "/"+base, or containing
// "/"+base+"/" (so a base covers its subpackages). Scope predicates
// match by suffix rather than full path so analyzer tests can run the
// same analyzers over fixture modules.
func (m *Module) PackagesInScope(bases ...string) []*Package {
	var out []*Package
	for _, p := range m.Packages {
		if PathInScope(p.ImportPath, bases...) {
			out = append(out, p)
		}
	}
	return out
}

// PathInScope reports whether import path p falls under any of the given
// path bases (see PackagesInScope).
func PathInScope(p string, bases ...string) bool {
	for _, b := range bases {
		if p == b || strings.HasSuffix(p, "/"+b) || strings.Contains(p, "/"+b+"/") {
			return true
		}
	}
	return false
}

// exportLookup resolves dependency imports from the compiler export data
// `go list -export` recorded, keyed by import path.
type exportLookup struct {
	exports map[string]string
}

func (l *exportLookup) open(path string) (io.ReadCloser, error) {
	file, ok := l.exports[path]
	if !ok || file == "" {
		return nil, fmt.Errorf("lifevet: no export data for %q", path)
	}
	return os.Open(file)
}

// moduleImporter prefers packages already type-checked from source (so
// intra-module imports share type identity) and falls back to export
// data for everything else. Import is called concurrently by the
// level-parallel type-check: the source map is guarded by mu, and the
// gc export-data importer — which is not safe for concurrent use — is
// serialized behind gcMu.
type moduleImporter struct {
	mu     sync.RWMutex
	source map[string]*types.Package
	gcMu   sync.Mutex
	gc     types.Importer
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	im.mu.RLock()
	p, ok := im.source[path]
	im.mu.RUnlock()
	if ok {
		return p, nil
	}
	im.gcMu.Lock()
	defer im.gcMu.Unlock()
	return im.gc.Import(path)
}

func (im *moduleImporter) add(path string, p *types.Package) {
	im.mu.Lock()
	im.source[path] = p
	im.mu.Unlock()
}

// Load builds, lists, parses, and type-checks the main-module packages
// matched by patterns (default "./...") under dir, using only the Go
// toolchain and the standard library: dependencies are imported from the
// compiler's export data, module packages are checked from source.
func Load(dir string, patterns ...string) (*Module, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-export",
		"-json=ImportPath,Dir,Name,Standard,Export,GoFiles,Imports,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lifevet: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	// -deps emits packages in dependency order: every import of a package
	// appears before it, so one forward pass can type-check from source
	// with all module dependencies already resolved.
	var listed []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lifevet: decoding go list output: %v", err)
		}
		listed = append(listed, &p)
	}

	lookup := &exportLookup{exports: make(map[string]string, len(listed))}
	for _, p := range listed {
		if p.Export != "" {
			lookup.exports[p.ImportPath] = p.Export
		}
	}
	imp := &moduleImporter{
		source: make(map[string]*types.Package),
		gc:     importer.ForCompiler(token.NewFileSet(), "gc", lookup.open),
	}

	m := &Module{Dir: dir, Fset: token.NewFileSet(), byPath: make(map[string]*Package)}
	var mod []*listPackage
	for _, lp := range listed {
		if lp.Standard || lp.Module == nil || !lp.Module.Main {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lifevet: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if m.Path == "" {
			m.Path = lp.Module.Path
		}
		mod = append(mod, lp)
	}
	if len(mod) == 0 {
		return nil, fmt.Errorf("lifevet: patterns %v matched no main-module packages under %s", patterns, dir)
	}

	// Parse every module package in parallel. token.FileSet serializes
	// AddFile internally, so one shared fset across parser goroutines is
	// safe; the per-package file slices keep their own order.
	parsed := make([][]*ast.File, len(mod))
	parseErrs := make([]error, len(mod))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, lp := range mod {
		wg.Add(1)
		go func(i int, lp *listPackage) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			files := make([]*ast.File, 0, len(lp.GoFiles))
			for _, name := range lp.GoFiles {
				f, err := parser.ParseFile(m.Fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
				if err != nil {
					parseErrs[i] = fmt.Errorf("lifevet: parsing %s: %v", name, err)
					return
				}
				files = append(files, f)
			}
			parsed[i] = files
		}(i, lp)
	}
	wg.Wait()
	for _, err := range parseErrs {
		if err != nil {
			return nil, err
		}
	}

	// Type-check in dependency levels: -deps order guarantees imports
	// precede importers, so packages whose module-internal imports are
	// all checked form a level and check concurrently. Packages append
	// to m.Packages in listing order regardless, keeping analyzer output
	// deterministic.
	sizes := types.SizesFor("gc", runtime.GOARCH)
	index := make(map[string]int, len(mod))
	for i, lp := range mod {
		index[lp.ImportPath] = i
	}
	pkgs := make([]*Package, len(mod))
	done := make([]bool, len(mod))
	for remaining := len(mod); remaining > 0; {
		var level []int
		for i, lp := range mod {
			if done[i] || pkgs[i] != nil {
				continue
			}
			ready := true
			for _, imp := range lp.Imports {
				if j, inMod := index[imp]; inMod && !done[j] {
					ready = false
					break
				}
			}
			if ready {
				level = append(level, i)
			}
		}
		if len(level) == 0 {
			return nil, fmt.Errorf("lifevet: import cycle among module packages (go list should have rejected this)")
		}
		checkErrs := make([]error, len(level))
		var cwg sync.WaitGroup
		for li, i := range level {
			cwg.Add(1)
			go func(li, i int) {
				defer cwg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				lp := mod[i]
				info := &types.Info{
					Types:      make(map[ast.Expr]types.TypeAndValue),
					Defs:       make(map[*ast.Ident]types.Object),
					Uses:       make(map[*ast.Ident]types.Object),
					Selections: make(map[*ast.SelectorExpr]*types.Selection),
					Implicits:  make(map[ast.Node]types.Object),
				}
				conf := types.Config{Importer: imp, Sizes: sizes}
				tpkg, err := conf.Check(lp.ImportPath, m.Fset, parsed[i], info)
				if err != nil {
					checkErrs[li] = fmt.Errorf("lifevet: type-checking %s: %v", lp.ImportPath, err)
					return
				}
				pkgs[i] = &Package{
					ImportPath: lp.ImportPath,
					Dir:        lp.Dir,
					Fset:       m.Fset,
					Files:      parsed[i],
					Types:      tpkg,
					Info:       info,
				}
				imp.add(lp.ImportPath, tpkg)
			}(li, i)
		}
		cwg.Wait()
		for _, err := range checkErrs {
			if err != nil {
				return nil, err
			}
		}
		for _, i := range level {
			done[i] = true
			remaining--
		}
	}
	for _, pkg := range pkgs {
		m.Packages = append(m.Packages, pkg)
		m.byPath[pkg.ImportPath] = pkg
	}
	return m, nil
}

package hotalloc_test

import (
	"path/filepath"
	"testing"

	"herdkv/internal/lint/analysistest"
	"herdkv/internal/lint/hotalloc"
)

func TestHotAlloc(t *testing.T) {
	// Rebind DirLookup so the cross-package callee rule resolves
	// fixture import paths inside the GOPATH-style src tree.
	srcDir := filepath.Join("..", "testdata", "src")
	orig := hotalloc.DirLookup
	hotalloc.DirLookup = func(pkgPath, fromDir string) string {
		return filepath.Join(srcDir, filepath.FromSlash(pkgPath))
	}
	t.Cleanup(func() { hotalloc.DirLookup = orig })
	analysistest.Run(t, "../testdata", hotalloc.Analyzer, "hafix")
}

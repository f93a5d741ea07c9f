package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestMainErrQuickSubset(t *testing.T) {
	dir := t.TempDir()
	if err := mainErr("fig1,fig11,table1", "quick", dir, 2); err != nil {
		t.Fatal(err)
	}
	// fig1 writes its token CSV when -out is set.
	if _, err := os.Stat(filepath.Join(dir, "fig01_tokens.csv")); err != nil {
		t.Fatalf("fig1 output missing: %v", err)
	}
}

func TestMainErrTknpArtifact(t *testing.T) {
	dir := t.TempDir()
	if err := mainErr("tknp", "quick", dir, 2); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"BENCH_tknp_regimes.json", "tknp_regimes.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("tknp output missing: %v", err)
		}
	}
}

func TestMainErrErrors(t *testing.T) {
	if err := mainErr("fig99", "quick", "", 0); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := mainErr("fig1", "huge", "", 0); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

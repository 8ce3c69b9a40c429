package main

// The -smoke and -smoke-cluster self-tests as tier-1 tests, so
// `go test ./...` runs the same end-to-end checks as the CI steps: real
// loopback HTTP, divergent verdicts, trace propagation, a lint-clean
// Prometheus exposition with its headline families, and a converging
// origin + replica fleet.

import (
	"io"
	"log/slog"
	"testing"
)

func TestSmoke(t *testing.T) {
	if err := smoke(slog.New(slog.NewTextHandler(io.Discard, nil))); err != nil {
		t.Fatal(err)
	}
}

func TestSmokeCluster(t *testing.T) {
	if err := smokeClusterScenario(slog.New(slog.NewTextHandler(io.Discard, nil))); err != nil {
		t.Fatal(err)
	}
}

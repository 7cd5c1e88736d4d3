package main

import "testing"

// TestAllExperimentsRun smoke-tests every experiment function: each
// must complete without panicking (their numeric assertions live in the
// package test suites; this guards the regeneration binary itself).
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment regeneration skipped in -short mode")
	}
	for _, e := range experiments() {
		t.Run(e.id, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("experiment %s panicked: %v", e.id, r)
				}
			}()
			e.run()
		})
	}
}

package analysis

import "testing"

// The service layer (internal/serve, cmd/widir-serve) legitimately
// hosts goroutines and reads the wall clock; the determinism lint must
// leave it alone WITHOUT loosening the contract anywhere else. These
// fixtures pin the boundary from both sides.

// TestGoNoSyncServeLicensed: the serve package may spawn its HTTP and
// worker goroutines.
func TestGoNoSyncServeLicensed(t *testing.T) {
	p := fixture(t, "repro/internal/serve", `package serve

func workers(n int, fn func()) {
	for i := 0; i < n; i++ {
		go fn()
	}
}
`)
	want(t, RunAll(p), map[int][]string{})
}

// TestGoNoSyncServeCmdLicensed: the widir-serve front-end runs its
// http.Server on a goroutine while the main goroutine waits for
// signals.
func TestGoNoSyncServeCmdLicensed(t *testing.T) {
	p := fixture(t, "repro/cmd/widir-serve", `package main

func serveAsync(fn func()) {
	go fn()
}
`)
	want(t, RunAll(p), map[int][]string{})
}

// TestGoNoSyncClientCmdCovered: widir-client is a plain sequential
// command, outside the service layer, so a goroutine there is flagged
// like anywhere else in the simulator's module.
func TestGoNoSyncClientCmdCovered(t *testing.T) {
	p := fixture(t, "repro/cmd/widir-client", `package main

func async(fn func()) {
	go fn()
}
`)
	want(t, RunAll(p), map[int][]string{
		4: {"gonosync"},
	})
}

// TestGoNoSyncCoherenceStillFails: a goroutine smuggled into the
// protocol controllers — the classic "just parallelize the directory"
// mistake — must still be flagged. The serve exemption is a package
// boundary, not a loophole.
func TestGoNoSyncCoherenceStillFails(t *testing.T) {
	p := fixture(t, "repro/internal/coherence", `package coherence

func handleAsync(fn func()) {
	go fn()
}
`)
	want(t, RunAll(p), map[int][]string{
		4: {"gonosync"},
	})
}

// TestWallTimeServeLicensed: Retry-After arithmetic and job
// timestamps in the service layer are fine.
func TestWallTimeServeLicensed(t *testing.T) {
	p := fixture(t, "repro/internal/serve", `package serve

import "time"

func stamp() time.Time { return time.Now() }
`)
	want(t, RunAll(p), map[int][]string{})
}

// TestWallTimeExpStillCovered: the experiment layer computes results,
// so the wall clock must not reach it — the serve exemption does not
// extend to internal/exp.
func TestWallTimeExpStillCovered(t *testing.T) {
	p := fixture(t, "repro/internal/exp", `package exp

import "time"

func stamp() time.Time { return time.Now() }
`)
	want(t, RunAll(p), map[int][]string{
		5: {"walltime"},
	})
}

// TestWallTimeMachineStillCovered: the simulator proper stays under
// the walltime rule.
func TestWallTimeMachineStillCovered(t *testing.T) {
	p := fixture(t, "repro/internal/machine", `package machine

import "time"

func now() int64 { return time.Now().UnixNano() }
`)
	want(t, RunAll(p), map[int][]string{
		5: {"walltime"},
	})
}

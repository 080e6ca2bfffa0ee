package main

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"multicube/internal/mc"
	"multicube/internal/workload"
)

// These self-checks prove the benchmark's output checks can fail: each
// injects one fault and requires the run to report failed operations,
// next to a clean control run that must report none.

func testBench(t *testing.T, name string, seed uint64, seconds time.Duration, edit func(*golden)) *bench {
	t.Helper()
	g, err := parseGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(g)
	}
	return newBench(name, seed, seconds, g, t.TempDir())
}

func TestWrongGoldenExplore(t *testing.T) {
	sc, err := mc.Preset("sb-victim-race")
	if err != nil {
		t.Fatal(err)
	}
	res, err := mc.Explore(sc, mc.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := testBench(t, "explore-seq", 1, 0, nil).golden
	if err := g.checkExplore(sc.Name, res); err != nil {
		t.Fatalf("true golden rejected: %v", err)
	}
	want := g.Explore[sc.Name]
	want.States++
	g.Explore[sc.Name] = want
	if g.checkExplore(sc.Name, res) == nil {
		t.Fatal("a wrong golden state count passed")
	}
}

func TestWrongGoldenParSpill(t *testing.T) {
	b := testBench(t, "explore-par-spill", 1, time.Millisecond, func(g *golden) { g.ParSpill.Violation = "sc" })
	if err := runExploreParSpill(b); err != nil {
		t.Fatal(err)
	}
	if b.failed == 0 || b.failed != b.attempted {
		t.Fatalf("wrong verdict golden: %d of %d operations failed, want all", b.failed, b.attempted)
	}
}

func TestWrongGoldenDES(t *testing.T) {
	b := testBench(t, "des-8x8", 3, time.Millisecond, nil)
	if err := runDES(b); err != nil {
		t.Fatal(err)
	}
	if b.failed != 0 || b.attempted != 2 {
		t.Fatalf("control: %d of %d failed (%v), want 0 of 2", b.failed, b.attempted, b.failures)
	}
	b = testBench(t, "des-8x8", 3, time.Millisecond, func(g *golden) { g.DES.Metrics["3"] = "0" })
	if err := runDES(b); err != nil {
		t.Fatal(err)
	}
	if b.failed != 2 {
		t.Fatalf("wrong golden: %d of %d failed, want both engine runs", b.failed, b.attempted)
	}
}

func TestSeqParDivergenceFails(t *testing.T) {
	// Seed 1000 has no golden, so only the engine comparison can fail.
	b := testBench(t, "des-8x8", 1000, time.Millisecond, nil)
	b.parStream = func(s workload.GenConfig) workload.GenConfig {
		s.Seed++
		return s
	}
	if err := runDES(b); err != nil {
		t.Fatal(err)
	}
	if b.failed != 1 || !strings.Contains(strings.Join(b.failures, "\n"), "diverged from the sequential") {
		t.Fatalf("divergence: %d of %d failed (%v), want the parallel run", b.failed, b.attempted, b.failures)
	}
}

func TestDroppedFarmJobFails(t *testing.T) {
	b := testBench(t, "farm-open", 1, 3*time.Second, nil)
	// The wrapper swallows the first submission of the run's first fresh
	// seed and answers it with a job id the farm never issued, as a farm
	// that lost the job would.
	var dropped atomic.Bool
	b.farmHandler = func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/jobs" {
				body, _ := io.ReadAll(r.Body)
				if strings.Contains(string(body), `"base_seed":1010000,`) && dropped.CompareAndSwap(false, true) {
					w.WriteHeader(http.StatusAccepted)
					io.WriteString(w, `{"job_id":"j-dropped","status":"queued"}`)
					return
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			h.ServeHTTP(w, r)
		})
	}
	if err := runFarm(b); err != nil {
		t.Fatal(err)
	}
	if b.failed == 0 || !strings.Contains(strings.Join(b.failures, "\n"), "j-dropped") {
		t.Fatalf("dropped job: %d of %d failed (%v), want the lost request", b.failed, b.attempted, b.failures)
	}
}

package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"multicube/internal/core"
	"multicube/internal/mc"
	"multicube/internal/workload"
)

// golden.json holds the outputs of the code the benchmark was defined
// on. Regenerate it only for a change that is meant to alter results:
//
//	python3 perfbench/run.py -write-golden
//
//go:embed golden.json
var goldenJSON []byte

// golden is every output the workloads check against.
type golden struct {
	// Explore is each explore-seq preset's sequential result.
	Explore map[string]exploreGolden `json:"explore"`
	// ParSpill is the explore-par-spill verdict. Its state count depends
	// on worker scheduling, so it is not part of the golden.
	ParSpill struct {
		Preset    string `json:"preset"`
		Exhausted bool   `json:"exhausted"`
		Violation string `json:"violation"`
	} `json:"par_spill"`
	// DES maps a stream seed to the SHA-256 of the 8×8 machine's
	// Metrics().String() after the des-8x8 stream; seeds beyond the table
	// are held out and checked only for engine agreement and invariants.
	DES struct {
		Metrics map[string]string `json:"metrics_sha256"`
	} `json:"des"`
	// FarmPool maps each warm-pool swarm seed to the SHA-256 of its
	// compacted result bytes.
	FarmPool map[string]string `json:"farm_pool_sha256"`
}

type exploreGolden struct {
	States    int    `json:"states"`
	Runs      int    `json:"runs"`
	Exhausted bool   `json:"exhausted"`
	SCVerdict string `json:"sc_verdict,omitempty"`
	Violation string `json:"violation,omitempty"`
	Choices   []int  `json:"choices,omitempty"`
}

func exploreGoldenOf(r mc.Result) exploreGolden {
	g := exploreGolden{States: r.States, Runs: r.Runs, Exhausted: r.Exhausted, SCVerdict: r.SCVerdict}
	if r.Violation != nil {
		g.Violation, g.Choices = r.Violation.Kind, r.Violation.Choices
	}
	return g
}

func parseGolden(data []byte) (*golden, error) {
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

func (g *golden) checkExplore(name string, r mc.Result) error {
	want, ok := g.Explore[name]
	if !ok {
		return fmt.Errorf("no golden")
	}
	got := exploreGoldenOf(r)
	if got.States != want.States || got.Runs != want.Runs || got.Exhausted != want.Exhausted ||
		got.SCVerdict != want.SCVerdict || got.Violation != want.Violation || !slices.Equal(got.Choices, want.Choices) {
		return fmt.Errorf("got %+v, want %+v", got, want)
	}
	return nil
}

func (g *golden) checkParSpill(r mc.Result) error {
	v := ""
	if r.Violation != nil {
		v = r.Violation.Kind
	}
	if r.Exhausted != g.ParSpill.Exhausted || v != g.ParSpill.Violation {
		return fmt.Errorf("exhausted %v violation %q, want %v %q", r.Exhausted, v, g.ParSpill.Exhausted, g.ParSpill.Violation)
	}
	return nil
}

// goldenDESSeeds is how many stream seeds (0 up to it) have a DES golden.
const goldenDESSeeds = 128

// writeGolden recomputes every golden from the current code.
func writeGolden(path string) error {
	var g golden
	g.Explore = map[string]exploreGolden{}
	for _, name := range exploreSeqSet {
		sc, err := mc.Preset(name)
		if err != nil {
			return err
		}
		r, err := mc.Explore(sc, mc.Options{Workers: 1})
		if err != nil {
			return err
		}
		g.Explore[name] = exploreGoldenOf(r)
	}
	sc, err := mc.Preset(parSpillPreset)
	if err != nil {
		return err
	}
	r, err := mc.Explore(sc, mc.Options{Workers: 1})
	if err != nil {
		return err
	}
	g.ParSpill.Preset, g.ParSpill.Exhausted = parSpillPreset, r.Exhausted
	if r.Violation != nil {
		g.ParSpill.Violation = r.Violation.Kind
	}
	g.DES.Metrics = map[string]string{}
	for seed := uint64(0); seed < goldenDESSeeds; seed++ {
		m, err := core.New(core.Config{N: desN})
		if err != nil {
			return err
		}
		workload.Run(m, desStream(seed, desRequests))
		g.DES.Metrics[fmt.Sprint(seed)] = metricsHash(m.Metrics().String())
	}
	if g.FarmPool, err = farmPoolGolden(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(&g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

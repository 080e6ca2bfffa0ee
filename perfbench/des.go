package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"multicube/internal/bus"
	"multicube/internal/coherence"
	"multicube/internal/core"
	"multicube/internal/mva"
	"multicube/internal/sim"
	"multicube/internal/workload"
)

// The des-8x8 workload: the ROADMAP's 8×8 / 1M-reference machine under
// the generator's mostly-private stream (1% shared, 30% writes, fixed
// 10 µs think time), seeded by -seed. The same stream runs on the
// sequential kernel and on the parallel engine, alternating which goes
// first, until the run's time is up.
const (
	desN        = 8
	desRequests = 15625 // per processor: 1,000,000 references on 64 processors
	desPShared  = 0.01
	desPWrite   = 0.3
)

func desStream(seed uint64, requests int) workload.GenConfig {
	return workload.GenConfig{Seed: seed, Requests: requests, PShared: desPShared, PWrite: desPWrite}
}

// desRun is one simulated run on one engine.
type desRun struct {
	metrics string // Machine.Metrics().String()
	report  workload.Report
	wall    time.Duration // RunCtx only; machine construction excluded
	events  uint64
	cpu     time.Duration // process CPU time during RunCtx
	batches sample        // ns per batch of RunCtx progress calls
	m       *core.Machine
}

// simulate builds the machine and runs the stream on it; parallel > 0
// selects the parallel engine with that many workers.
func simulate(b *bench, stream workload.GenConfig, parallel int) (*desRun, error) {
	trace := b.tr.id()
	t0 := time.Now()
	m, err := core.New(core.Config{N: desN, Parallel: parallel})
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	b.tr.add(0, trace, "core.new", t0, t1)
	root := b.tr.id()
	r := &desRun{m: m}
	// A batch is 4096 dispatched events: RunCtx's sequential batch size.
	// The parallel engine reports after every synchronization phase, far
	// more often, so its calls are grouped up to the same size.
	last, lastEvents := t1, uint64(0)
	cpu0 := cpuTime()
	r.report = workload.RunCtx(context.Background(), m, stream, func(_, events uint64) {
		if events-lastEvents < 4096 {
			return
		}
		now := time.Now()
		r.batches = append(r.batches, float64(now.Sub(last)))
		b.tr.add(root, trace, "sim.batch", last, now)
		last, lastEvents = now, events
	})
	r.cpu = cpuTime() - cpu0
	end := time.Now()
	b.tr.record(root, 0, trace, "sim.run", t1, end)
	r.wall = end.Sub(t1)
	r.metrics = m.Metrics().String()
	r.events = m.Executed()
	return r, nil
}

// checkDES verifies one engine's run: a complete stream, the coherence
// invariants at quiescence, and the golden metrics for this seed.
func checkDES(g *golden, seed uint64, engine string, r *desRun) error {
	want := uint64(desN * desN * desRequests)
	if r.report.Canceled || r.report.References != want {
		return fmt.Errorf("%s: %d references, want %d", engine, r.report.References, want)
	}
	if errs := r.m.CheckInvariants(); len(errs) > 0 {
		return fmt.Errorf("%s: %d invariant violations, first: %v", engine, len(errs), errs[0])
	}
	if h, ok := g.DES.Metrics[fmt.Sprint(seed)]; ok && h != metricsHash(r.metrics) {
		return fmt.Errorf("%s: metrics differ from the golden for seed %d", engine, seed)
	}
	return nil
}

func metricsHash(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

func runDES(b *bench) error {
	g := b.golden
	_, b.detail["golden_seed"] = g.DES.Metrics[fmt.Sprint(b.seed)]
	stream := desStream(b.seed, desRequests)
	if err := b.setupMedian(5, func() error {
		// Machine construction for both engines plus a short run on each,
		// so the heap and lazily built tables are warm before timing.
		for _, par := range []int{0, procs()} {
			if _, err := simulate(&bench{}, desStream(b.seed, 500), par); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	var seqRates, seqCPURates, parTimes, seqNsPerEv, parNsPerEv, batches sample
	var first *desRun
	var stats sim.RunnerStats
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < b.seconds; i++ {
		order := []int{0, procs()}
		if i%2 == 1 {
			order = []int{procs(), 0}
		}
		var seq, par *desRun
		for _, p := range order {
			st := stream
			if p > 0 && b.parStream != nil {
				st = b.parStream(st)
			}
			r, err := simulate(b, st, p)
			if err != nil {
				return err
			}
			if p > 0 {
				par = r
				stats = r.m.Runner().Stats()
				parTimes = append(parTimes, r.wall.Seconds())
				parNsPerEv = append(parNsPerEv, float64(r.wall)/float64(r.events))
			} else {
				seq = r
				seqRates = append(seqRates, float64(r.report.References)/r.wall.Seconds())
				seqNsPerEv = append(seqNsPerEv, float64(r.wall)/float64(r.events))
				batches = append(batches, r.batches...)
				seqCPURates = append(seqCPURates, float64(r.report.References)/r.cpu.Seconds())
			}
		}
		if first == nil {
			first = seq
		}
		// One operation per engine run: each must be complete, coherent
		// and golden; the parallel run must also match the sequential one,
		// and every sequential run the first.
		err := checkDES(g, b.seed, "sequential", seq)
		if err == nil && seq.metrics != first.metrics {
			err = fmt.Errorf("sequential: repeated run diverged")
		}
		b.check(err == nil, "des seed %d: %v", b.seed, err)
		err = checkDES(g, b.seed, "parallel", par)
		if err == nil && (par.metrics != seq.metrics || par.events != seq.events) {
			err = fmt.Errorf("parallel: diverged from the sequential kernel")
		}
		b.check(err == nil, "des seed %d: %v", b.seed, err)
	}
	// The sequential kernel is single-threaded, so it is timed in process
	// CPU time, which a shared host's steal does not inflate.
	b.set("throughput_per_s", seqCPURates.median())
	b.set("time_to_result_s", parTimes.median())
	bs := batches.summary()
	b.set("latency_p50_ms", bs.P50/1e6)

	p := mva.Defaults(desN)
	p.RequestRate = first.report.BusRate(first.m.Processors())
	pred, err := mva.Solve(p)
	if err != nil {
		return err
	}
	b.detail["des"] = map[string]any{
		"runs_per_engine":       len(seqRates),
		"seq_refs_per_sec":      seqRates.summary(),
		"par_refs_per_sec":      float64(first.report.References) / parTimes.median(),
		"par_wall_s":            parTimes.summary(),
		"batch_ns":              bs,
		"sim_efficiency":        first.report.Efficiency(),
		"bus_rate_per_ms":       p.RequestRate,
		"mva_efficiency":        pred.Efficiency,
		"available_parallelism": stats.Parallelism(),
		"metrics_sha256":        metricsHash(first.metrics),
	}
	if b.tr != nil {
		mt := first.m.Metrics()
		b.set("sim.events", float64(first.events))
		b.set("sim.ns_per_event_seq", seqNsPerEv.median())
		b.set("sim.ns_per_event_par", parNsPerEv.median())
		b.set("sim.batch_ms_p99", batches.quantile(0.99)/1e6)
		b.set("sim.runner.windows", float64(stats.Windows))
		b.set("sim.runner.boundaries", float64(stats.Boundaries))
		b.set("sim.runner.parallelism", stats.Parallelism())
		b.set("bus.row_ops", float64(mt.RowBusOps))
		b.set("bus.col_ops", float64(mt.ColBusOps))
		var wait sim.Time
		var ops uint64
		sys := first.m.System()
		for i := 0; i < desN; i++ {
			for _, st := range []bus.Stats{sys.RowBus(i).Stats(), sys.ColBus(i).Stats()} {
				wait += st.WaitTime
				ops += st.Ops
			}
		}
		b.set("bus.wait_ns_mean", float64(wait)/float64(max(ops, 1)))
		b.set("coherence.txns_read", float64(mt.Txns[coherence.READ].Count))
		b.set("coherence.txns_readmod", float64(mt.Txns[coherence.READMOD].Count))
		b.set("coherence.reissues", float64(mt.Reissues))
		b.set("core.l2_misses", float64(mt.L2Misses))
	}
	return nil
}

package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"multicube/internal/coherence"
	"multicube/internal/mc"
	"multicube/internal/statespace"
)

// exploreSeqSet is the explore-seq workload: the 2×2 race presets the
// explorer's speed claims were made on plus read-snarf, the 3×3 CheckSC
// litmus preset, the single-bus baselines and the violation-finding
// stale-shared-mp.
// All exhaust except stale-shared-mp, which ends at its sc-total
// violation.
var exploreSeqSet = []string{
	"readmod-race", "sync-race", "mlt-overflow-lock", "read-snarf",
	"litmus-mp-3x3",
	"sb-writeonce-race", "sb-victim-race", "sb-mesi-race", "sb-mesi-victim-race",
	"stale-shared-mp",
}

// violationPreset is the explore-seq member whose search time, with
// minimization and the replayed report, is time_to_result_s.
const violationPreset = "stale-shared-mp"

// parSpillPreset is explored by explore-par-spill: a 2×2 grid preset
// that exhausts in seconds, so a run holds several explorations.
// spillBudget is far below its visited table (~30k states), so the
// statespace disk tier takes most of the inserts and lookups.
const (
	parSpillPreset = "sync-race"
	spillBudget    = 256 << 10
)

// warmPreset is explored during set-up so lazily built tables and the
// heap are warm before timing.
const warmPreset = "read-race"

// exploreTotals accumulates explorer layer counters over a run.
type exploreTotals struct {
	states, runs      int
	fpRec, fpInc      uint64
	scChecks, scUndec uint64
	spills            int
	diskBytes         int64
	frontierMax       int
	execGaps          sample // ns between consecutive Instrument calls (sequential only)
	progressGaps      sample // ns between consecutive Progress calls
	chunkRates        sample // states/s over each chunkRuns consecutive executions
}

// chunkRuns is how many consecutive executions one throughput sample
// spans: a few milliseconds of work, short enough that the median over a
// run's thousands of chunks is not moved by the bursts of hypervisor
// steal a shared host shows, long enough to hold a dozen new states.
const chunkRuns = 32

func (t *exploreTotals) add(r mc.Result) {
	t.states += r.States
	t.runs += r.Runs
	t.fpRec += r.FPRecomputes
	t.fpInc += r.FPIncremental
	t.scChecks += r.SCChecks
	t.scUndec += r.SCUndecided
	t.spills += r.Spills
	t.diskBytes += r.DiskBytes
}

// explore runs one exploration with the benchmark's hooks: Progress
// always (its gaps are the per-execution latency), Instrument and spans
// only when traced. Instrument runs on worker goroutines, so it is left
// off parallel searches.
func explore(b *bench, sc mc.Scenario, opts mc.Options, tot *exploreTotals) (mc.Result, time.Duration, error) {
	trace := b.tr.id()
	root := b.tr.id()
	seq := opts.Workers <= 1
	start := time.Now()
	last, lastInst := start, time.Time{}
	chunkStart, chunkStates, calls := start, 0, 0
	opts.Progress = func(p mc.Progress) {
		now := time.Now()
		tot.progressGaps = append(tot.progressGaps, float64(now.Sub(last)))
		tot.frontierMax = max(tot.frontierMax, p.Frontier)
		if calls++; calls%chunkRuns == 0 {
			tot.chunkRates = append(tot.chunkRates, float64(p.States-chunkStates)/now.Sub(chunkStart).Seconds())
			chunkStart, chunkStates = now, p.States
		}
		if b.tr != nil {
			pid := b.tr.add(root, trace, "mc.progress", last, now)
			if seq && !lastInst.IsZero() && lastInst.After(last) {
				b.tr.add(pid, trace, "mc.exec", lastInst, now)
			}
		}
		last = now
	}
	if b.tr != nil && seq {
		opts.Instrument = func(*coherence.System) {
			now := time.Now()
			if !lastInst.IsZero() {
				tot.execGaps = append(tot.execGaps, float64(now.Sub(lastInst)))
			}
			lastInst = now
		}
	}
	res, err := mc.Explore(sc, opts)
	if err == nil && res.Violation != nil {
		// The report a user gets is the replayed counterexample trace.
		var rep *mc.ReplayResult
		rep, err = mc.Replay(sc, res.Violation.Choices, mc.Options{})
		if err == nil && (rep.Violation == nil || rep.Violation.Kind != res.Violation.Kind) {
			err = fmt.Errorf("%s: replay did not reproduce the %s violation", sc.Name, res.Violation.Kind)
		}
		if err == nil {
			err = rep.Log.WriteText(io.Discard)
		}
	}
	end := time.Now()
	b.tr.record(root, 0, trace, "mc.explore", start, end)
	if err == nil {
		tot.add(res)
	}
	return res, end.Sub(start), err
}

// setupMedian times fn k times and reports the median as setup_s.
func (b *bench) setupMedian(k int, fn func() error) error {
	var s sample
	for i := 0; i < k; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		s = append(s, time.Since(t0).Seconds())
	}
	b.set("setup_s", s.median())
	b.detail["setup_s"] = s
	return nil
}

func loadPresets(names []string) ([]mc.Scenario, error) {
	out := make([]mc.Scenario, len(names))
	for i, n := range names {
		sc, err := mc.Preset(n)
		if err != nil {
			return nil, err
		}
		out[i] = sc
	}
	return out, nil
}

func runExploreSeq(b *bench) error {
	g := b.golden
	var scs []mc.Scenario
	if err := b.setupMedian(5, func() error {
		var err error
		if scs, err = loadPresets(exploreSeqSet); err != nil {
			return err
		}
		warm, err := mc.Preset(warmPreset)
		if err != nil {
			return err
		}
		_, err = mc.Explore(warm, mc.Options{Workers: 1})
		return err
	}); err != nil {
		return err
	}

	var tot exploreTotals
	var passTimes, violWall, violCPU sample
	var cpu time.Duration
	start := time.Now()
	for {
		passStart := time.Now()
		for _, sc := range scs {
			cpu0 := cpuTime()
			res, dt, err := explore(b, sc, mc.Options{Workers: 1}, &tot)
			used := cpuTime() - cpu0
			cpu += used
			if err == nil {
				err = g.checkExplore(sc.Name, res)
			}
			b.check(err == nil, "%s: %v", sc.Name, err)
			if sc.Name == violationPreset {
				violWall = append(violWall, dt.Seconds())
				violCPU = append(violCPU, used.Seconds())
			}
		}
		passTimes = append(passTimes, time.Since(passStart).Seconds())
		// Only whole passes are measured: start another one only if it
		// fits in the remaining time at the median pass length.
		if time.Since(start).Seconds()+passTimes.median() > b.seconds.Seconds() {
			break
		}
	}
	elapsed := time.Since(start)
	b.detail["passes"] = len(passTimes)
	b.detail["pass_s"] = passTimes
	b.detail["states_per_pass"] = tot.states / len(passTimes)
	// The explorer here is single-threaded, so process CPU time is its
	// host time without the intervals a shared host took the CPU away.
	b.detail["states_per_sec_wall"] = float64(tot.states) / elapsed.Seconds()
	b.detail["states_per_sec_chunk_median"] = tot.chunkRates.median()
	b.set("throughput_per_s", float64(tot.states)/cpu.Seconds())
	b.set("time_to_result_s", violCPU.median())
	b.detail["time_to_violation_s"] = map[string]sample{"wall": violWall, "cpu": violCPU}
	b.exploreLatency(&tot)
	if b.tr != nil {
		b.exploreLayers(&tot, len(passTimes))
		b.statespaceProbe(tot.states/len(passTimes), tot.runs/len(passTimes), statespace.Config{})
	}
	return nil
}

func runExploreParSpill(b *bench) error {
	g := b.golden
	var sc, warm mc.Scenario
	var n int
	opts := func() mc.Options {
		n++
		return mc.Options{
			Workers:   procs(),
			StoreDir:  filepath.Join(b.tmp, fmt.Sprintf("store-%d", n)),
			MemBudget: spillBudget,
		}
	}
	if err := b.setupMedian(5, func() error {
		var err error
		if sc, err = mc.Preset(parSpillPreset); err != nil {
			return err
		}
		if warm, err = mc.Preset(warmPreset); err != nil {
			return err
		}
		o := opts()
		_, err = mc.Explore(warm, o)
		os.RemoveAll(o.StoreDir)
		return err
	}); err != nil {
		return err
	}

	var tot exploreTotals
	var rates, times sample
	var counts []int
	start := time.Now()
	for len(times) == 0 || time.Since(start)+time.Duration(times.median()*float64(time.Second)) <= b.seconds {
		o := opts()
		res, dt, err := explore(b, sc, o, &tot)
		os.RemoveAll(o.StoreDir)
		times = append(times, dt.Seconds())
		// Gated on verdict and exhaustion only: a parallel search's state
		// count depends on worker scheduling, so it is reported, not checked.
		if err == nil {
			err = g.checkParSpill(res)
		}
		if !b.check(err == nil, "%s: %v", sc.Name, err) {
			continue
		}
		rates = append(rates, float64(res.States)/dt.Seconds())
		counts = append(counts, res.States)
	}
	slices.Sort(counts)
	b.detail["explorations"] = len(times)
	b.detail["states"] = counts
	b.detail["spills_per_exploration"] = tot.spills / len(times)
	b.detail["states_per_sec_per_exploration"] = rates
	b.set("throughput_per_s", tot.chunkRates.median())
	b.set("time_to_result_s", times.median())
	b.exploreLatency(&tot)
	if b.tr != nil {
		b.exploreLayers(&tot, len(times))
		b.statespaceProbe(tot.states/len(times), tot.runs/len(times),
			statespace.Config{Dir: filepath.Join(b.tmp, "probe"), MemBudget: spillBudget})
	}
	return nil
}

// exploreLatency reports the per-execution host time (the gap between
// consecutive Progress calls, which the explorer makes once per
// from-scratch execution) as the workload's latency.
func (b *bench) exploreLatency(tot *exploreTotals) {
	s := tot.progressGaps.summary()
	b.set("latency_p50_ms", s.P50/1e6)
	b.detail["execution_ns"] = s
}

// exploreLayers reports the explorer's layer counters per unit of work —
// one pass of the preset set, or one exploration — so that a faster
// explorer fitting more units into a run does not inflate them.
func (b *bench) exploreLayers(tot *exploreTotals, units int) {
	per := func(n float64) float64 { return n / float64(units) }
	b.set("mc.runs", per(float64(tot.runs)))
	b.set("mc.states_per_run", float64(tot.states)/float64(max(tot.runs, 1)))
	b.set("mc.frontier_max", float64(tot.frontierMax))
	b.set("mc.exec_us_p50", tot.execGaps.median()/1e3)
	b.set("mc.exec_us_p99", tot.execGaps.quantile(0.99)/1e3)
	b.set("coherence.fp_recomputes", per(float64(tot.fpRec)))
	b.set("coherence.fp_incremental", per(float64(tot.fpInc)))
	b.set("coherence.fp_reuse_ratio", float64(tot.fpInc)/float64(max(tot.fpInc+tot.fpRec, 1)))
	b.set("memmodel.sc_checks", per(float64(tot.scChecks)))
	b.set("memmodel.sc_undecided", per(float64(tot.scUndec)))
	b.set("statespace.spills", per(float64(tot.spills)))
	b.set("statespace.disk_bytes", per(float64(tot.diskBytes)))
}

// statespaceProbe drives statespace.Store.Visit directly with the
// workload's shape — its distinct-state count, one revisit per
// from-scratch execution (each ends on an already-visited state), its
// store configuration — and times every call.
func (b *bench) statespaceProbe(states, revisits int, cfg statespace.Config) {
	trace := b.tr.id()
	t0 := time.Now()
	st, err := statespace.Open(cfg)
	if !b.check(err == nil, "statespace probe: %v", err) {
		return
	}
	defer st.Close()
	rng := splitmix(b.seed ^ 0x5bd1e995)
	fps := make([]uint64, 0, states)
	var visit sample
	total := states + revisits
	for i := 0; i < total; i++ {
		var fp uint64
		if len(fps) > 0 && (len(fps) == states || rng.next()%uint64(total) < uint64(revisits)) {
			fp = fps[rng.next()%uint64(len(fps))]
		} else {
			fp = rng.next()
			fps = append(fps, fp)
		}
		s := time.Now()
		st.Visit(fp, nil, 1<<62)
		visit = append(visit, float64(time.Since(s)))
	}
	b.check(st.Err() == nil && st.States() == len(fps), "statespace probe: %d states, want %d (err %v)", st.States(), len(fps), st.Err())
	b.tr.add(0, trace, "statespace.probe", t0, time.Now())
	b.set("statespace.visit_ns_p50", visit.median())
	b.set("statespace.visit_ns_p99", visit.quantile(0.99))
	b.detail["statespace_probe"] = map[string]any{
		"visits": total, "states": len(fps), "spills": st.Spills(), "disk_bytes": st.DiskBytes(),
	}
}

// splitmix is a seeded 64-bit generator for benchmark inputs.
type splitmixRNG struct{ s uint64 }

func splitmix(seed uint64) *splitmixRNG { return &splitmixRNG{s: seed} }

func (r *splitmixRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

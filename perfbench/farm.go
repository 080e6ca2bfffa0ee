package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"multicube/internal/farm"
)

// The farm-open workload: an in-process farm served on loopback and an
// open-loop generator that sends on a fixed schedule at each offered rate
// in turn, whether or not earlier requests have completed. Each request
// reuses an already-sent swarm spec with probability farmReuse and
// otherwise sends a fresh seed, so cache misses — each an exploration of
// about a tenth of a second — keep arriving. Arrivals are evenly spaced
// and each block of ten requests holds exactly one fresh seed, at a
// seeded position: the offered load is the same in every run, and only
// which specs are sent depends on the seed.
const (
	farmReuse = 0.9
	// A spec explores farmSwarmCount swarm seeds of up to farmMaxStates
	// states each. Per-seed cost varies widely (a few ms to a few hundred
	// at 1500 states); four seeds at 500 states keep a miss near 0.1 s
	// with a third of the spread, so the miss latency is a property of
	// the farm rather than of which seeds a run drew.
	farmSwarmCount = 4
	farmMaxStates  = 500
	farmPoolSize   = 8    // warm-pool specs sent during set-up
	farmPoolBase   = 1000 // first warm-pool swarm seed
	farmPollEvery  = 5 * time.Millisecond
	// farmLimitMS is the latency limit a rate must meet at its tail to
	// count towards the highest sustained rate.
	farmLimitMS = 500.0
)

// farmRates are the offered rates (requests/s), each run for an equal
// share of the measured time, lowest first. The p50 is taken at
// farmRefRate, where a 2-CPU host still has a CPU to spare for the hit
// path. The top rate sits above the knee, so the highest rate that meets
// the limit falls inside the ladder.
var farmRates = []float64{60, 120, 180}

const farmRefRate = 60

// farmTailQ is the quantile each rate's tail is judged at: with a third
// of a 25 s run per rate, p95 is the highest percentile with at least ten
// requests beyond it at every rate.
const farmTailQ = 0.95

// poolSeed is the base seed of the i-th warm-pool spec.
func poolSeed(i int) int64 { return farmPoolBase + farmSwarmCount*int64(i) }

func swarmSpec(seed int64) []byte {
	return []byte(fmt.Sprintf(`{"kind":"swarm","swarm":{"base_seed":%d,"count":%d,"machines":"multicube","max_states":%d}}`,
		seed, farmSwarmCount, farmMaxStates))
}

// farmEnv is a running farm and the benchmark's client for it.
type farmEnv struct {
	srv    *farm.Server
	hs     *http.Server
	base   string
	tr     *http.Transport
	client *http.Client
	served chan struct{}
}

func startFarm(dir string, wrap func(http.Handler) http.Handler) (*farmEnv, error) {
	// A negative rate turns the per-client limiter off: Config treats 0
	// as "use the 50/s default".
	//
	// The queue is deeper than the default 64 so that the top offered
	// rate, above the knee, builds a backlog within a run rather than
	// refusals: the ladder measures latency and capacity, and a refusal
	// would count as a failed operation.
	srv, err := farm.New(farm.Config{Workers: procs(), CacheDir: dir, RatePerSec: -1, QueueDepth: 256})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close(context.Background())
		return nil, err
	}
	tr := &http.Transport{MaxConnsPerHost: procs(), MaxIdleConnsPerHost: procs()}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	e := &farmEnv{
		srv: srv, hs: &http.Server{Handler: h},
		base: "http://" + ln.Addr().String(), tr: tr,
		client: &http.Client{Transport: tr, Timeout: time.Minute},
		served: make(chan struct{}),
	}
	go func() {
		defer close(e.served)
		e.hs.Serve(ln)
	}()
	return e, nil
}

func (e *farmEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	<-e.served
	if cerr := e.srv.Close(ctx); err == nil {
		err = cerr
	}
	e.tr.CloseIdleConnections()
	return err
}

// farmReply is the part of the farm's job status the benchmark reads.
type farmReply struct {
	JobID   string          `json:"job_id"`
	Status  string          `json:"status"`
	Cached  bool            `json:"cached"`
	Deduped bool            `json:"deduped"`
	Error   string          `json:"error"`
	Result  json.RawMessage `json:"result"`
}

func (e *farmEnv) do(method, path string, body []byte) (int, farmReply, error) {
	var r farmReply
	req, err := http.NewRequest(method, e.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, r, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, r, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return resp.StatusCode, r, fmt.Errorf("decoding %s %s: %w", method, path, err)
	}
	return resp.StatusCode, r, nil
}

// await submits spec and polls until its result is available.
func (e *farmEnv) await(spec []byte) (string, error) {
	code, r, err := e.do("POST", "/jobs", spec)
	for err == nil && (code == http.StatusOK || code == http.StatusAccepted) && r.Status != farm.StateDone {
		if r.Status == farm.StateFailed || r.Status == farm.StateCanceled {
			break
		}
		time.Sleep(farmPollEvery)
		code, r, err = e.do("GET", "/jobs/"+r.JobID, nil)
	}
	if err != nil {
		return "", err
	}
	if r.Status != farm.StateDone {
		return "", fmt.Errorf("job ended %q (HTTP %d): %s", r.Status, code, r.Error)
	}
	return resultHash(r.Result)
}

// resultHash checks that a result is a completed swarm verdict and
// returns the SHA-256 of its compacted bytes.
func resultHash(raw json.RawMessage) (string, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return "", fmt.Errorf("result: %w", err)
	}
	var v struct {
		Verdict string `json:"verdict"`
	}
	if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
		return "", fmt.Errorf("result: %w", err)
	}
	if v.Verdict != "ok" && v.Verdict != "violation" {
		return "", fmt.Errorf("result verdict %q", v.Verdict)
	}
	h := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(h[:]), nil
}

func farmPoolGolden() (map[string]string, error) {
	dir, err := os.MkdirTemp("", "farm-golden-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e, err := startFarm(dir, nil)
	if err != nil {
		return nil, err
	}
	defer e.close()
	out := map[string]string{}
	for i := 0; i < farmPoolSize; i++ {
		seed := poolSeed(i)
		h, err := e.await(swarmSpec(seed))
		if err != nil {
			return nil, err
		}
		out[fmt.Sprint(seed)] = h
	}
	return out, nil
}

// farmReq is one scheduled request.
type farmReq struct {
	due   time.Time
	spec  int // index into the spec list; below farmPoolSize is the warm pool
	phase int
}

// farmOutcome is what became of one request.
type farmOutcome struct {
	class        string // "cached", "dedup" or "exec"
	late, lat    time.Duration
	submitToDone time.Duration
	err          error
}

// farmSchedule draws the open-loop schedule from the seed: evenly spaced
// arrivals at each rate for its share of the run, one fresh seed per
// block of 1/(1-farmReuse) requests, and which sent spec each reuse sends.
func farmSchedule(seed uint64, start time.Time, seconds time.Duration) (reqs []farmReq, seeds []int64) {
	rng := splitmix(seed)
	for i := 0; i < farmPoolSize; i++ {
		seeds = append(seeds, poolSeed(i))
	}
	// Fresh specs take disjoint seed ranges per run seed.
	fresh := int64(1_000_000 + (seed%100_000)*10_000)
	block := int(math.Round(1 / (1 - farmReuse)))
	freshAt := 0
	phaseLen := seconds / time.Duration(len(farmRates))
	for p, rate := range farmRates {
		n := int(phaseLen.Seconds() * rate)
		for k := 0; k < n; k++ {
			i := len(reqs)
			if i%block == 0 {
				freshAt = i + int(rng.next()%uint64(block))
			}
			spec := int(rng.next() % uint64(len(seeds)))
			if i == freshAt {
				spec = len(seeds)
				seeds = append(seeds, fresh)
				fresh += farmSwarmCount
			}
			at := time.Duration(p)*phaseLen + time.Duration(float64(k)/rate*float64(time.Second))
			reqs = append(reqs, farmReq{due: start.Add(at), spec: spec, phase: p})
		}
	}
	return reqs, seeds
}

// farmLoad runs the open-loop schedule against e and returns every
// request's outcome. Requests go out over procs() connections; accepted
// jobs are polled until their result is available.
func farmLoad(b *bench, e *farmEnv, reqs []farmReq, seeds []int64, pool map[string]string) []farmOutcome {
	out := make([]farmOutcome, len(reqs))
	var mu sync.Mutex
	hashes := map[int]string{}
	// verify records a result and checks it against the first result of
	// the same spec and, for the warm pool, against the golden.
	verify := func(spec int, raw json.RawMessage) error {
		h, err := resultHash(raw)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if first, ok := hashes[spec]; ok && first != h {
			return fmt.Errorf("seed %d: repeated spec returned different bytes", seeds[spec])
		}
		hashes[spec] = h
		if want, ok := pool[fmt.Sprint(seeds[spec])]; ok && want != h {
			return fmt.Errorf("seed %d: result differs from the golden", seeds[spec])
		}
		return nil
	}

	type pendingJob struct {
		i             int
		id            string
		sent, replied time.Time
		trace, root   uint64
	}
	var (
		pending []pendingJob
		sending = true
	)
	// queue holds every request due but not yet picked up; it is sized to
	// the whole schedule so the generator never blocks on slow senders.
	queue := make(chan int, len(reqs))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(queue)
		for i := range reqs {
			time.Sleep(time.Until(reqs[i].due))
			queue <- i
		}
	}()
	var senders sync.WaitGroup
	senders.Add(procs())
	for w := 0; w < procs(); w++ {
		go func() {
			defer senders.Done()
			for i := range queue {
				trace, root := b.tr.id(), b.tr.id()
				sent := time.Now()
				o := &out[i]
				o.late = sent.Sub(reqs[i].due)
				code, r, err := e.do("POST", "/jobs", swarmSpec(seeds[reqs[i].spec]))
				replied := time.Now()
				b.tr.add(root, trace, "farm.submit", sent, replied)
				switch {
				case err != nil:
					o.err = err
				case code == http.StatusOK && r.Cached:
					o.class, o.lat = "cached", replied.Sub(reqs[i].due)
					o.err = verify(reqs[i].spec, r.Result)
					b.tr.record(root, 0, trace, "farm.request", sent, replied)
				case code == http.StatusAccepted && r.JobID != "":
					o.class = "exec"
					if r.Deduped {
						o.class = "dedup"
					}
					mu.Lock()
					pending = append(pending, pendingJob{i: i, id: r.JobID, sent: sent, replied: replied, trace: trace, root: root})
					mu.Unlock()
				default:
					o.err = fmt.Errorf("submit: HTTP %d %s", code, r.Error)
				}
			}
		}()
	}
	go func() {
		senders.Wait()
		mu.Lock()
		sending = false
		mu.Unlock()
	}()

	// The poller resolves accepted jobs. A job lost by the farm never
	// completes; after the drain limit it counts as failed.
	drainBy := time.Time{}
	for {
		mu.Lock()
		jobs := append([]pendingJob(nil), pending...)
		done := !sending && len(pending) == 0
		if !sending && drainBy.IsZero() {
			drainBy = time.Now().Add(60 * time.Second)
		}
		mu.Unlock()
		if done {
			break
		}
		if !drainBy.IsZero() && time.Now().After(drainBy) {
			for _, j := range jobs {
				out[j.i].err = fmt.Errorf("job %s lost: no result within the drain limit", j.id)
			}
			break
		}
		finished := map[int]bool{}
		for _, j := range jobs {
			code, r, err := e.do("GET", "/jobs/"+j.id, nil)
			now := time.Now()
			o := &out[j.i]
			switch {
			case err != nil || code != http.StatusOK:
				o.err = fmt.Errorf("poll %s: HTTP %d %v", j.id, code, err)
			case r.Status == farm.StateDone:
				o.lat, o.submitToDone = now.Sub(reqs[j.i].due), now.Sub(j.sent)
				o.err = verify(reqs[j.i].spec, r.Result)
				b.tr.add(j.root, j.trace, "farm.wait", j.replied, now)
				b.tr.record(j.root, 0, j.trace, "farm.request", j.sent, now)
			case r.Status == farm.StateFailed || r.Status == farm.StateCanceled:
				o.err = fmt.Errorf("job %s ended %s: %s", j.id, r.Status, r.Error)
			default:
				continue
			}
			finished[j.i] = true
		}
		mu.Lock()
		kept := pending[:0]
		for _, j := range pending {
			if !finished[j.i] {
				kept = append(kept, j)
			}
		}
		pending = kept
		mu.Unlock()
		time.Sleep(farmPollEvery)
	}
	wg.Wait()
	senders.Wait()
	return out
}

// The idle-farm probe submits farmProbeJobs new specs, the same ones in
// every run (seeds from farmProbeBase, which no load or pool spec uses):
// per-spec exploration cost varies by a third between specs, which the
// probe must not mistake for a change in the farm.
const (
	farmProbeJobs = 10
	farmProbeBase = 900_000
)

// farmNewJobCPU submits the probe specs one at a time to the now idle
// farm and returns the median process CPU seconds from submit to result:
// what one new job costs the farm end to end — exploration, cache write,
// encoding, HTTP — in a measure a shared host's steal and the load
// phases' queueing do not move. Under load the miss latency moved by up
// to 3× with the host's steal, so it is reported
// (farm_ref_miss_latency_ms), not gated.
func farmNewJobCPU(b *bench, e *farmEnv) float64 {
	var cpu, wall sample
	for i := 0; i < farmProbeJobs; i++ {
		c0, t0 := cpuTime(), time.Now()
		_, err := e.await(swarmSpec(farmProbeBase + int64(i)*farmSwarmCount))
		if b.check(err == nil, "farm probe job %d: %v", i, err) {
			cpu = append(cpu, (cpuTime() - c0).Seconds())
			wall = append(wall, time.Since(t0).Seconds())
		}
	}
	b.detail["farm_new_job_s"] = map[string]sample{"cpu": cpu, "wall": wall}
	return cpu.median()
}

func (e *farmEnv) metrics() (farm.Metrics, error) {
	var m farm.Metrics
	resp, err := e.client.Get(e.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// phaseStats is one offered rate's outcome.
type phaseStats struct {
	Rate     float64 `json:"rate"`
	Requests int     `json:"requests"`
	P50      float64 `json:"p50_ms"`
	Tail     float64 `json:"p95_ms"`
	// Meets: the tail is within farmLimitMS and so is the median of the
	// phase's last quarter, i.e. no backlog built up.
	Meets bool `json:"meets_limit"`
}

// farmMaxRate is the highest offered rate that meets the limit: the last
// rate of the unbroken run of phases that meet it, moved towards the
// first failing rate by where the tail crosses the limit between the two
// (interpolated in log latency), so the figure moves with the farm's
// speed rather than in whole ladder steps. It is capped at the top rate;
// when even the lowest rate fails it scales that rate by limit/tail.
func farmMaxRate(ph []phaseStats) float64 {
	for i, p := range ph {
		if p.Meets {
			continue
		}
		if i == 0 {
			return p.Rate * farmLimitMS / p.Tail
		}
		prev := ph[i-1]
		if p.Tail <= farmLimitMS {
			return prev.Rate // failed on backlog alone
		}
		frac := math.Log(farmLimitMS/prev.Tail) / math.Log(p.Tail/prev.Tail)
		return prev.Rate + (p.Rate-prev.Rate)*min(max(frac, 0), 1)
	}
	return ph[len(ph)-1].Rate
}

func runFarm(b *bench) error {
	pool := b.golden.FarmPool
	var e *farmEnv
	n := 0
	if err := b.setupMedian(3, func() error {
		// Set-up is a fresh farm with its warm pool computed and cached.
		if e != nil {
			if err := e.close(); err != nil {
				return err
			}
		}
		n++
		var err error
		if e, err = startFarm(filepath.Join(b.tmp, fmt.Sprintf("farm-%d", n)), b.farmHandler); err != nil {
			return err
		}
		for i := 0; i < farmPoolSize; i++ {
			h, err := e.await(swarmSpec(poolSeed(i)))
			if err != nil {
				return err
			}
			b.check(h == pool[fmt.Sprint(poolSeed(i))], "farm warm pool seed %d differs from the golden", poolSeed(i))
		}
		return nil
	}); err != nil {
		return err
	}
	defer e.close()

	// Traced runs scrape the farm's own gauges while the load runs.
	scrapeDone := make(chan struct{})
	scraped := make(chan int, 1)
	go func() {
		depth := 0
		defer func() { scraped <- depth }()
		if b.tr == nil {
			return
		}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-scrapeDone:
				return
			case <-tick.C:
				if m, err := e.metrics(); err == nil {
					depth = max(depth, m.QueueDepth)
				}
			}
		}
	}()

	start := time.Now().Add(50 * time.Millisecond)
	reqs, seeds := farmSchedule(b.seed, start, b.seconds)
	out := farmLoad(b, e, reqs, seeds, pool)
	close(scrapeDone)
	queueMax := <-scraped

	m, err := e.metrics()
	if err != nil {
		return err
	}
	// The farm's own books must agree: every distinct spec (the warm
	// pool and each fresh seed) ran exactly once, nothing failed or was
	// refused. A lost job also fails its request below.
	b.check(m.JobsFailed == 0 && m.JobsCanceled == 0 && m.JobsCompleted == uint64(len(seeds)) &&
		m.RateLimited == 0 && m.QueueRejected == 0,
		"farm metrics: completed %d of %d jobs, failed %d, canceled %d, refused %d",
		m.JobsCompleted, len(seeds), m.JobsFailed, m.JobsCanceled, m.RateLimited+m.QueueRejected)

	phases := make([]phaseStats, len(farmRates))
	lat := make([]sample, len(farmRates))
	var late, cached, dedup, exec, execLat, refLat, refLate sample
	for i, o := range out {
		if !b.check(o.err == nil, "farm request %d (seed %d): %v", i, seeds[reqs[i].spec], o.err) {
			continue
		}
		p := reqs[i].phase
		lat[p] = append(lat[p], float64(o.lat)/1e6)
		if farmRates[p] <= farmRefRate {
			refLat = append(refLat, float64(o.lat)/1e6)
			refLate = append(refLate, float64(o.late)/1e6)
		}
		late = append(late, float64(o.late)/1e6)
		switch o.class {
		case "cached":
			cached = append(cached, float64(o.lat)/1e6)
		case "dedup":
			dedup = append(dedup, float64(o.lat)/1e6)
		case "exec":
			exec = append(exec, float64(o.submitToDone)/1e6)
			if farmRates[p] <= farmRefRate {
				execLat = append(execLat, float64(o.lat)/1e6)
			}
		}
	}
	for p, rate := range farmRates {
		q := lat[p][len(lat[p])*3/4:]
		phases[p] = phaseStats{Rate: rate, Requests: len(lat[p]), P50: lat[p].median(), Tail: lat[p].quantile(farmTailQ)}
		phases[p].Meets = phases[p].Requests > 0 && phases[p].Tail <= farmLimitMS && q.median() <= farmLimitMS
	}
	rs := refLat.summary()
	b.set("latency_p50_ms", rs.P50)
	b.set("time_to_result_s", farmNewJobCPU(b, e))
	b.detail["farm_ref_latency_ms"] = rs
	b.detail["farm_ref_late_ms"] = refLate.summary()
	b.detail["farm_ref_miss_latency_ms"] = execLat.summary()
	b.detail["farm_phases"] = phases
	b.detail["farm_max_rps"] = farmMaxRate(phases)
	b.set("throughput_per_s", farmMaxRate(phases))
	if b.tr != nil {
		b.set("farm.cached_ms_p99", cached.quantile(0.99))
		b.set("farm.dedup_ms_p99", dedup.quantile(0.99))
		b.set("farm.exec_ms_p50", exec.median())
		b.set("farm.exec_ms_p99", exec.quantile(0.99))
		b.set("farm.queue_depth_max", float64(queueMax))
		b.set("farm.cache_hit_ratio", m.CacheHitRatio)
		b.set("farm.rejected", float64(m.RateLimited+m.QueueRejected))
		b.set("farm.gen_late_ms_p99", late.quantile(0.99))
	}
	return nil
}

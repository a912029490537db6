// Command perfbench is FastFrame's benchmark. It generates one workload
// from a seed, drives it through FastFrame's public surfaces (SQL text on
// an Engine, prepared statements, and the ffserved HTTP handler), checks
// every answer against an exact oracle, and prints its metrics as one
// JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload paper-mix --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// reports the per-layer metrics instead: it records spans for every
// other mix cycle, compares those cycles' latency with the untraced
// ones, times each layer's functions on the workload's own table after
// the timed phase, and writes the spans to the output directory.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// setupReps is how many times a run sets the workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance is printed before the result and stored with the spans.
type provenance struct {
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        int    `json:"trace"`
	Rows         int    `json:"rows"`
	Clients      int    `json:"clients"`
	PoolBudget   int64  `json:"pool_budget_bytes"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"numcpu"`
	CPUModel     string `json:"cpu_model"`
	GoVersion    string `json:"go_version"`
	GitSHA       string `json:"git_sha"`
	SourceSHA256 string `json:"source_sha256"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build/perfbench", "directory for the table file and spans")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workloads: paper-mix, quantile-mix, serve-resident, serve-ooc)\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	prov := provenance{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Rows: w.rows, Clients: w.clients,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), GoVersion: runtime.Version(),
		GitSHA: os.Getenv("PERFBENCH_GIT_SHA"), SourceSHA256: sourceDigest("."),
	}
	if w.ooc {
		prov.PoolBudget = touchedBytes(w.rows) / 2
	}
	if prov.GitSHA == "" {
		prov.GitSHA = "unknown"
	}
	pj, _ := json.Marshal(prov) // plain struct of strings and numbers
	fmt.Println("provenance", string(pj))

	res, err := bench(context.Background(), w, prov, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rj, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(rj))
}

func bench(ctx context.Context, w workload, prov provenance, d time.Duration, trace bool, dir string) (*output, error) {
	var st *state
	var setups, gens, persists []float64
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = setup(ctx, w, prov.Seed, dir); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, st.generate.Seconds())
		persists = append(persists, st.persist.Seconds())
	}
	defer st.close()

	st.phase(ctx, 0, 1, false) // warm-up: one cycle per client fills caches and pools
	runtime.GC()
	before := snapshot(st.eng)
	heap := watchHeap()
	samples, wall := st.phase(ctx, d, period, trace)
	peak := heap.peakMB()
	after := snapshot(st.eng)

	var t tally
	for _, s := range samples {
		t.add(s.failed)
		if s.failed && t.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: %s %v failed: %s\n", w.mix[s.item].name, s.args, s.err)
		}
	}
	perItem(os.Stderr, w.mix, samples)
	res := &output{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed}
	var err error
	if trace {
		res.Metrics, err = st.perLayer(samples, before, after, gens, persists, t, prov, dir)
	} else {
		res.Metrics, err = endToEnd(st, samples, wall, median(setups), peak)
	}
	return res, err
}

// period is the number of cycles after which every argument set of a mix
// has been sent equally often; timed phases end on a period boundary, so
// a run's figures do not depend on where in a period it stopped.
const period = 2

// phase runs the closed loop: each client sends the mix, in an order
// shuffled per cycle so that concurrent clients meet in every
// combination, cycle after cycle until d has passed and, for an
// untraced run, the run holds enough samples for every reported
// percentile (at most four times d). It stops on a multiple of every
// cycles. With trace set, every other period of each client is traced;
// the traced run reports medians only.
func (st *state) phase(ctx context.Context, d time.Duration, every int, trace bool) ([]sample, time.Duration) {
	need := samplesFor(0.9)
	if trace {
		need = 0
	}
	var total, streamed atomic.Int64
	start := time.Now()
	deadline, hardStop := start.Add(d), start.Add(4*d)
	perClient := make([][]sample, st.w.clients)
	var wg sync.WaitGroup
	for k := range perClient {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(st.seed, uint64(k)))
			order := rng.Perm(len(st.w.mix))
			for c := 0; ; c++ {
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				for _, i := range order {
					it, sets := st.w.mix[i], st.order[i]
					s := st.run(ctx, i, sets[(c+k)%len(sets)], uint64(c), trace && (c/period)%2 == 0)
					if it.via.streaming() && s.ttfi == 0 {
						s.ttfi = s.latency
					}
					perClient[k] = append(perClient[k], s)
					total.Add(1)
					if it.via.streaming() {
						streamed.Add(1)
					}
				}
				if (c+1)%every != 0 {
					continue
				}
				now := time.Now()
				enough := total.Load() >= int64(need) && streamed.Load() >= int64(need)
				if now.After(hardStop) || (now.After(deadline) && enough) {
					return
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var all []sample
	for _, ss := range perClient {
		all = append(all, ss...)
	}
	return all, wall
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// perItem writes each mix item's request count, median latency and time
// to first interval, and mean interval width, so a moved percentile can
// be traced to the statements that moved it.
func perItem(w io.Writer, mix []mixItem, samples []sample) {
	for i, it := range mix {
		var lat, ttfi, width []float64
		for _, s := range samples {
			if s.item == i && !s.failed {
				lat = append(lat, ms(s.latency))
				ttfi = append(ttfi, ms(s.ttfi))
				width = append(width, s.width)
			}
		}
		fmt.Fprintf(w, "perfbench: %-18s n=%-4d latency_p50_ms=%-9.4g ttfi_p50_ms=%-9.4g width_frac_mean=%.4g\n",
			it.name, len(lat), median(lat), median(ttfi), mean(width))
	}
}

func endToEnd(st *state, samples []sample, wall time.Duration, setupS, peakMB float64) (map[string]metric, error) {
	var lat, ttfi, blocks, width []float64
	for _, s := range samples {
		if s.failed {
			continue
		}
		lat = append(lat, ms(s.latency))
		if st.w.mix[s.item].via.streaming() {
			ttfi = append(ttfi, ms(s.ttfi))
		}
		if !s.exact {
			blocks = append(blocks, float64(s.blocks))
			width = append(width, s.width)
		}
	}
	m := map[string]metric{
		"setup_s":            {setupS, "s"},
		"qps":                {float64(len(lat)) / wall.Seconds(), "1/s"},
		"blocks_per_query":   {mean(blocks), "count"},
		"ci_width_frac_mean": {mean(width), "ratio"},
		"peak_heap_mb":       {peakMB, "MB"},
	}
	for _, p := range []struct {
		name string
		xs   []float64
		p    float64
	}{
		{"latency_p50_ms", lat, 0.5}, {"latency_p90_ms", lat, 0.9},
		{"ttfi_p50_ms", ttfi, 0.5}, {"ttfi_p90_ms", ttfi, 0.9},
	} {
		v, err := percentile(p.xs, p.p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		m[p.name] = metric{v, "ms"}
	}
	return m, nil
}

// spans turns the traced samples into a request span, the engine span
// inside it (its length from Result.Duration or duration_ns, ending when
// the final interval was read), and one span per round between
// successive progress snapshots.
func spans(samples []sample, t0 time.Time) []span {
	var out []span
	id := 0
	for req, s := range samples {
		if !s.traced || s.failed {
			continue
		}
		end := s.start.Add(s.latency).Sub(t0).Nanoseconds()
		id++
		root := span{ID: id, Req: req + 1, Name: "request", Start: s.start.Sub(t0).Nanoseconds(), End: end}
		out = append(out, root)
		if s.engine <= 0 {
			continue
		}
		id++
		eng := span{ID: id, Parent: root.ID, Req: root.Req, Name: "engine", Start: max(root.Start, end-s.engine.Nanoseconds()), End: end}
		out = append(out, eng)
		prev := eng.Start
		for _, m := range s.marks {
			at := min(max(m.Sub(t0).Nanoseconds(), prev), end)
			id++
			out = append(out, span{ID: id, Parent: eng.ID, Req: root.Req, Name: "round", Start: prev, End: at})
			prev = at
		}
	}
	return out
}

func (st *state) perLayer(samples []sample, before, after counters, gens, persists []float64, t tally, prov provenance, dir string) (map[string]metric, error) {
	n := float64(len(samples))
	var engMs, roundMs, exactMs, speedup, overMs, respKB, tracedLat, plainLat []float64
	var rounds, rowsSum, engSec, blocksSum, coveredBlocks float64
	fact := st.resid
	if fact == nil {
		fact = st.ooc
	}
	blockRows := math.Ceil(float64(fact.NumRows()) / float64(fact.NumBlocks()))
	for _, s := range samples {
		if s.failed {
			continue
		}
		it := st.w.mix[s.item]
		if s.traced {
			tracedLat = append(tracedLat, ms(s.latency))
			for i := 1; i < len(s.marks); i++ {
				roundMs = append(roundMs, ms(s.marks[i].Sub(s.marks[i-1])))
			}
		} else {
			plainLat = append(plainLat, ms(s.latency))
		}
		if it.via == httpQuery || it.via == httpStream {
			overMs = append(overMs, ms(s.latency-s.engine))
			respKB = append(respKB, float64(s.respSize)/1024)
		}
		if s.exact {
			exactMs = append(exactMs, ms(s.engine))
			continue
		}
		engMs = append(engMs, ms(s.engine))
		rounds += float64(s.rounds)
		rowsSum += float64(s.rows)
		engSec += s.engine.Seconds()
		blocksSum += float64(s.blocks)
		coveredBlocks += math.Ceil(float64(s.rows) / blockRows)
		speedup = append(speedup, float64(st.oracle[key(it.sql, s.args)].ex.Duration)/float64(s.latency))
	}
	if len(exactMs) == 0 {
		for _, e := range st.oracle {
			exactMs = append(exactMs, ms(e.ex.Duration))
		}
	}
	approx := float64(len(engMs))

	t0 := time.Now()
	if len(samples) > 0 {
		t0 = samples[0].start
		for _, s := range samples {
			if s.start.Before(t0) {
				t0 = s.start
			}
		}
	}
	sp := spans(samples, t0)
	self := selfTimes(sp)
	traced := 0
	for _, s := range sp {
		if s.Name == "request" {
			traced++
		}
	}

	// Replays run after the timed phase on the workload's own table. A
	// resident workload persists it here, which also times persist.
	persistS := median(persists)
	if st.path == "" {
		st.path = filepath.Join(dir, fmt.Sprintf("%s-%d.ff", st.w.name, prov.Seed))
		t1 := time.Now()
		pool, ooc, err := persist(st.resid, st.path, 0)
		if err != nil {
			return nil, err
		}
		persistS = time.Since(t1).Seconds()
		ooc.Close()
		pool.Close()
	}
	in, err := loadReplay(st.path)
	if err != nil {
		return nil, err
	}
	defer in.store.Close()
	rr := in.rounds()
	readUs, err := in.readUs()
	if err != nil {
		return nil, err
	}
	decodeNs, err := in.decodeNs()
	if err != nil {
		return nil, err
	}
	prepUs, err := prepareUs(st.w.mix)
	if err != nil {
		return nil, err
	}
	bindUs, err := st.bindUs()
	if err != nil {
		return nil, err
	}

	hits := float64(after.planHits - before.planHits)
	lookups := hits + float64(after.planMisses-before.planMisses)
	demanded := float64(after.shared.BlocksDemanded - before.shared.BlocksDemanded)
	fetched := float64(after.shared.BlocksFetched - before.shared.BlocksFetched)
	sharedFactor := 1.0 // a solo scan fetches each block it demands once
	if fetched > 0 {
		sharedFactor = demanded / fetched
	}
	pHits := float64(after.pool.Hits - before.pool.Hits)
	pMiss := float64(after.pool.Misses - before.pool.Misses)
	plainP50 := median(plainLat)

	m := map[string]metric{
		"serve.overhead_ms_p50":          {median(overMs), "ms"},
		"serve.resp_kb_mean":             {mean(respKB), "KiB"},
		"sql.prepare_us":                 {prepUs, "us"},
		"sql.bind_us":                    {bindUs, "us"},
		"sql.plan_cache_hit_pct":         {100 * ratio(hits, lookups), "%"},
		"exec.engine_ms_p50":             {median(engMs), "ms"},
		"exec.round_ms_p50":              {median(roundMs), "ms"},
		"exec.rounds_per_query":          {ratio(rounds, approx), "count"},
		"exec.scan_mrows_per_s":          {ratio(rowsSum, engSec) / 1e6, "Mrows/s"},
		"exec.fetch_pct":                 {100 * ratio(blocksSum, coveredBlocks), "%"},
		"exec.shared_factor":             {sharedFactor, "ratio"},
		"ci.update_ns_per_obs":           {in.ciUpdateNs(), "ns"},
		"ci.bound_ns_per_call":           {in.ciBoundNs(rr), "ns"},
		"stats.ecdf_round_us":            {in.ecdfRoundUs(rr), "us"},
		"bitmap.mark_ns_per_block":       {in.markNs(), "ns"},
		"blockstore.hit_pct":             {100 * ratio(pHits, pHits+pMiss), "%"},
		"blockstore.loads_per_query":     {ratio(pMiss, n), "count"},
		"blockstore.mb_read_per_query":   {ratio(float64(after.pool.BytesRead-before.pool.BytesRead), n) / 1e6, "MB"},
		"blockstore.evictions_per_query": {ratio(float64(after.pool.Evictions-before.pool.Evictions), n), "count"},
		"blockstore.read_us_per_block":   {readUs, "us"},
		"blockstore.decode_ns_per_block": {decodeNs, "ns"},
		"exact.ms_p50":                   {median(exactMs), "ms"},
		"exact.speedup_p50":              {median(speedup), "ratio"},
		"runtime.alloc_mb_per_query":     {ratio(after.allocBytes-before.allocBytes, n) / 1e6, "MB"},
		"runtime.gc_cpu_pct":             {100 * ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), "%"},
		"table.generate_s":               {median(gens), "s"},
		"table.persist_s":                {persistS, "s"},
		"bench.trace_overhead_pct":       {100 * ratio(median(tracedLat)-plainP50, plainP50), "%"},
		"bench.failed_frac":              {t.failedFrac(), "ratio"},
		"trace.request_self_ms":          {ratio(ms(self["request"]), float64(traced)), "ms"},
		"trace.engine_self_ms":           {ratio(ms(self["engine"]), float64(traced)), "ms"},
		"trace.round_self_ms":            {ratio(ms(self["round"]), float64(traced)), "ms"},
	}
	return m, writeSpans(filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", st.w.name, prov.Seed)), prov, sp)
}

func writeSpans(path string, prov provenance, sp []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{prov, sp})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the Go sources and module files under root, so a
// run outside a git checkout still names the code it measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

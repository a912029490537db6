package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fastframe"
	"fastframe/internal/serve"
)

// transport is how a mix item reaches FastFrame.
type transport int

const (
	engineStream transport = iota // Engine.Stream, drained with Rows.Next
	boundQuery                    // Stmt.Bind, then BoundStmt.Query with WithProgress
	httpQuery                     // POST /v1/query
	httpStream                    // POST /v1/stream, NDJSON
)

// streaming reports whether the caller sees intervals before the final
// one, so the request has a time to first interval.
func (t transport) streaming() bool { return t != httpQuery }

// mixItem is one statement of a workload's mix. Each cycle of a client
// sends every item once, with the next of its argument sets.
type mixItem struct {
	name    string
	sql     string
	argSets [][]any // nil: one run without arguments
	via     transport
	exact   bool     // "exact": true request
	cols    []string // column of each SELECT-list aggregate
}

// workload is one input set the benchmark runs. Every workload is a
// closed loop: each client sends its next request once the previous
// reply is read.
type workload struct {
	name    string
	rows    int
	clients int
	serve   bool // behind the ffserved handler on loopback, with the airports dimension
	ooc     bool // persisted and opened through a buffer pool of half the touched bytes
	mix     []mixItem
}

// serveMix is shared by serve-resident and serve-ooc, so their difference
// isolates storage. Three of the five items stream, so that the time to
// first interval has an odd number of latency clusters and its median
// falls inside one of them, not on a boundary. Each statement either
// stops well before the end of the scramble or always exhausts it, so
// that whether it stops early does not hinge on the seed's data.
var serveMix = []mixItem{
	{name: "oneshot-args", via: httpQuery,
		sql:     "SELECT AVG(DepDelay) FROM flights WHERE Airline = ? GROUP BY DayOfWeek WITHIN ?%",
		argSets: [][]any{{"AA", 10.0}, {"DL", 10.0}},
		cols:    []string{"DepDelay"}},
	{name: "stream-origin", via: httpStream,
		sql:     "SELECT AVG(DepDelay) FROM flights WHERE Origin = ? WITHIN 20%",
		argSets: [][]any{{"ORD"}, {"ATL"}},
		cols:    []string{"DepDelay"}},
	{name: "stream-star-join", via: httpStream,
		sql: "SELECT AVG(DepDelay) FROM flights JOIN airports ON flights.Origin = airports.key " +
			"WHERE airports.region = ? WITHIN 10%",
		argSets: [][]any{{"west"}, {"east"}},
		cols:    []string{"DepDelay"}},
	{name: "stream-having", via: httpStream,
		sql:     "SELECT AVG(DepDelay) FROM flights GROUP BY Airline HAVING AVG(DepDelay) > ?",
		argSets: [][]any{{0.0}, {1.0}},
		cols:    []string{"DepDelay"}},
	{name: "exact", via: httpQuery, exact: true,
		sql:  "SELECT AVG(DepDelay) FROM flights GROUP BY Origin",
		cols: []string{"DepDelay"}},
}

var workloads = []workload{
	{name: "paper-mix", rows: 2_000_000, clients: 1, mix: paperMix()},
	// The median falls inside the latency cluster of the middle item and
	// p90 inside the slowest one's, never on a boundary between two: the
	// three slowest items are well separated, and the argument sets of
	// each of them cost about the same. COUNT(DISTINCT) counts days, which
	// every airline flies, so its interval width measures the engine, not
	// how many airports the seed's data happens to leave an airline.
	{name: "quantile-mix", rows: 500_000, clients: 1, mix: []mixItem{
		{name: "distinct-median", via: boundQuery,
			sql:     "SELECT COUNT(DISTINCT DayOfWeek), MEDIAN(DepDelay) FROM flights WHERE Airline = ? WITHIN 20%",
			argSets: [][]any{{"HP"}, {"AS"}},
			cols:    []string{"DayOfWeek", "DepDelay"}},
		{name: "avg-var-stddev", via: boundQuery,
			sql:     "SELECT AVG(DepDelay), VAR(DepDelay), STDDEV(DepDelay) FROM flights WHERE Origin = ? WITHIN 25%",
			argSets: [][]any{{"ORD"}, {"LAX"}},
			cols:    []string{"DepDelay", "DepDelay", "DepDelay"}},
		{name: "var-by-day", via: boundQuery,
			sql:  "SELECT VAR(DepDelay), STDDEV(DepDelay) FROM flights GROUP BY DayOfWeek WITHIN 20%",
			cols: []string{"DepDelay", "DepDelay"}},
		{name: "percentile-by-day", via: boundQuery,
			sql:     "SELECT PERCENTILE(DepDelay, ?) FROM flights GROUP BY DayOfWeek WITHIN 5%",
			argSets: [][]any{{0.75}, {0.9}},
			cols:    []string{"DepDelay"}},
		{name: "median-percentile", via: boundQuery,
			sql:     "SELECT MEDIAN(DepDelay), PERCENTILE(DepDelay, ?) FROM flights GROUP BY Airline WITHIN 20%",
			argSets: [][]any{{0.75}, {0.9}},
			cols:    []string{"DepDelay", "DepDelay"}},
	}},
	{name: "serve-resident", rows: 1_000_000, clients: 2, serve: true, mix: serveMix},
	{name: "serve-ooc", rows: 1_000_000, clients: 2, serve: true, ooc: true, mix: serveMix},
}

// paperMix is F-q1 to F-q9 of the paper with its Table 5 parameters.
func paperMix() []mixItem {
	qs := []string{
		"SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD' WITHIN 50%",
		"SELECT AVG(DepDelay) FROM flights GROUP BY Airline HAVING AVG(DepDelay) > 0",
		"SELECT AVG(DepDelay) FROM flights WHERE DepTime > 2250 GROUP BY Airline ORDER BY AVG(DepDelay) ASC LIMIT 2",
		"SELECT AVG(DepDelay) FROM flights WHERE Origin = 'ORD' GROUP BY Origin HAVING AVG(DepDelay) > 10",
		"SELECT AVG(DepDelay) FROM flights GROUP BY Origin HAVING AVG(DepDelay) < 0",
		"SELECT AVG(DepDelay) FROM flights WHERE DepTime > 1350 GROUP BY DayOfWeek, Origin ORDER BY AVG(DepDelay) DESC LIMIT 5",
		"SELECT AVG(DepDelay) FROM flights WHERE Airline = 'HP' GROUP BY DayOfWeek ORDER BY AVG(DepDelay)",
		"SELECT AVG(DepDelay) FROM flights GROUP BY Origin ORDER BY AVG(DepDelay) DESC LIMIT 1",
		"SELECT AVG(DepDelay) FROM flights GROUP BY Airline ORDER BY AVG(DepDelay) DESC LIMIT 1",
	}
	mix := make([]mixItem, len(qs))
	for i, q := range qs {
		mix[i] = mixItem{name: fmt.Sprintf("F-q%d", i+1), sql: q, via: engineStream, cols: []string{"DepDelay"}}
	}
	return mix
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// touchedBytes is the decoded size of the columns a mix reads: 8 bytes a
// row per float column, 4 per categorical code column.
func touchedBytes(rows int) int64 {
	const floatCols, catCols = 1, 3 // DepDelay; Origin, Airline, DayOfWeek
	return int64(rows) * (8*floatCols + 4*catCols)
}

// oracleEntry is the exact answer of one (SQL, args) pair.
type oracleEntry struct {
	ex      *fastframe.ExactResult
	trivial []float64 // trivial interval width per SELECT-list aggregate
}

func key(sql string, args []any) string { return sql + " " + fmt.Sprint(args) }

// state is one set-up workload, ready to run.
type state struct {
	w       workload
	seed    uint64
	eng     *fastframe.Engine
	resid   *fastframe.Table // the generated table (nil for serve-ooc after set-up)
	stmts   map[string]*fastframe.Stmt
	oracle  map[string]oracleEntry
	order   [][][]any // per mix item, its argument sets in seed order
	path    string    // persisted table file, if any
	pool    *fastframe.BufferPool
	ooc     *fastframe.Table
	url     string
	client  *http.Client
	httpSrv *http.Server
	srv     *serve.Server
	served  chan error

	generate, persist time.Duration
}

// setup generates the table from the seed, opens it the way the workload
// serves it, computes the exact oracle for every (SQL, args) pair, and
// starts the server.
func setup(ctx context.Context, w workload, seed uint64, dir string) (st *state, err error) {
	st = &state{w: w, seed: seed, stmts: map[string]*fastframe.Stmt{}, oracle: map[string]oracleEntry{}}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	t0 := time.Now()
	if st.resid, err = fastframe.GenerateFlights(w.rows, seed); err != nil {
		return st, fmt.Errorf("generate: %w", err)
	}
	st.generate = time.Since(t0)

	rng := rand.New(rand.NewPCG(seed, 0x9e3779b9))
	for _, it := range w.mix {
		sets := it.argSets
		if sets == nil {
			sets = [][]any{nil}
		}
		sets = append([][]any(nil), sets...)
		rng.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
		st.order = append(st.order, sets)
	}

	var dim *fastframe.Dimension
	if w.serve {
		if dim, err = airports(st.resid); err != nil {
			return st, err
		}
	}
	oeng, err := newEngine(st.resid, dim)
	if err != nil {
		return st, err
	}
	if err := st.computeOracle(ctx, oeng); err != nil {
		return st, err
	}

	fact := st.resid
	if w.ooc {
		st.path = filepath.Join(dir, fmt.Sprintf("%s-%d.ff", w.name, seed))
		t1 := time.Now()
		if st.pool, st.ooc, err = persist(st.resid, st.path, touchedBytes(w.rows)/2); err != nil {
			return st, err
		}
		st.persist = time.Since(t1)
		fact, st.resid = st.ooc, nil
	}
	if st.eng, err = newEngine(fact, dim); err != nil {
		return st, err
	}
	for _, it := range w.mix {
		if it.via == boundQuery {
			if st.stmts[it.sql], err = st.eng.Prepare(it.sql); err != nil {
				return st, fmt.Errorf("prepare %s: %w", it.name, err)
			}
		}
	}
	if w.serve {
		if err := st.startServer(); err != nil {
			return st, err
		}
	}
	return st, nil
}

func newEngine(fact *fastframe.Table, dim *fastframe.Dimension) (*fastframe.Engine, error) {
	eng := fastframe.NewEngine()
	if err := eng.Register("flights", fact); err != nil {
		return nil, err
	}
	if dim == nil {
		return eng, nil
	}
	if err := eng.RegisterDimension("airports", dim); err != nil {
		return nil, err
	}
	if err := eng.AttachDimension("flights", "Origin", "airports"); err != nil {
		return nil, err
	}
	return eng, nil
}

// airports builds the dimension keyed by every Origin value, with four
// regions dealt round-robin over the sorted airport codes.
func airports(t *fastframe.Table) (*fastframe.Dimension, error) {
	origins, err := t.CategoricalValues("Origin")
	if err != nil {
		return nil, err
	}
	sort.Strings(origins)
	regions := []string{"west", "east", "central", "south"}
	d := fastframe.NewDimension("airports")
	for i, o := range origins {
		d.Add(o, map[string]string{"region": regions[i%len(regions)]})
	}
	return d, nil
}

func (st *state) computeOracle(ctx context.Context, eng *fastframe.Engine) error {
	for i, it := range st.w.mix {
		stmt, err := eng.Prepare(it.sql)
		if err != nil {
			return fmt.Errorf("prepare %s: %w", it.name, err)
		}
		for _, args := range st.order[i] {
			ex, err := stmt.QueryExact(ctx, args...)
			if err != nil {
				return fmt.Errorf("oracle %s %v: %w", it.name, args, err)
			}
			if len(ex.Aggs) != len(it.cols) {
				return fmt.Errorf("%s: %d aggregates, %d columns listed", it.name, len(ex.Aggs), len(it.cols))
			}
			e := oracleEntry{ex: ex}
			for j, agg := range ex.Aggs {
				var a, b float64
				var dict []string
				if agg == fastframe.AggCountDistinct {
					dict, err = st.resid.CategoricalValues(it.cols[j])
				} else {
					a, b, err = st.resid.ColumnBounds(it.cols[j])
				}
				if err != nil {
					return fmt.Errorf("%s: %w", it.name, err)
				}
				tw, err := trivialWidth(agg, a, b, len(dict))
				if err != nil {
					return fmt.Errorf("%s: %w", it.name, err)
				}
				e.trivial = append(e.trivial, tw)
			}
			st.oracle[key(it.sql, args)] = e
		}
	}
	return nil
}

// persist writes t in the current on-disk format and opens it out of
// core through a new pool of the given budget.
func persist(t *fastframe.Table, path string, budget int64) (*fastframe.BufferPool, *fastframe.Table, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if _, err := t.WriteTo(bw); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	pool := fastframe.NewBufferPool(budget)
	ooc, err := fastframe.OpenTable(path, pool)
	if err != nil {
		pool.Close()
		return nil, nil, fmt.Errorf("open %s: %w", path, err)
	}
	return pool, ooc, nil
}

func (st *state) startServer() error {
	srv, err := serve.New(st.eng, serve.Config{Tenants: []serve.TenantConfig{{Name: "bench"}}})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.srv = srv
	st.httpSrv = &http.Server{Handler: srv}
	st.served = make(chan error, 1)
	go func() { st.served <- st.httpSrv.Serve(ln) }()
	st.url = "http://" + ln.Addr().String()
	st.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: st.w.clients,
		DisableCompression:  true,
	}}
	return nil
}

// close stops the server and releases files; it waits for the serving
// goroutine to return.
func (st *state) close() {
	if st.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = st.httpSrv.Shutdown(ctx) // a timeout leaves connections to process exit
		_ = st.srv.Shutdown(ctx)
		cancel()
		<-st.served
		st.client.CloseIdleConnections()
		st.httpSrv = nil
	}
	if st.ooc != nil {
		st.ooc.Close()
		st.ooc = nil
	}
	if st.pool != nil {
		st.pool.Close()
		st.pool = nil
	}
	if st.path != "" {
		os.Remove(st.path)
		st.path = ""
	}
}

// sample is the record of one request.
type sample struct {
	item     int
	args     []any
	traced   bool
	start    time.Time
	ttfi     time.Duration // 0 for one-shot requests
	latency  time.Duration
	engine   time.Duration // Result.Duration or duration_ns
	marks    []time.Time   // arrival of each progress snapshot, traced requests only
	exact    bool
	blocks   int
	rows     int
	rounds   int
	width    float64 // mean interval width over trivial width
	respSize int
	failed   bool
	err      string
}

// run sends one request and checks its answer against the oracle.
// In-process requests start their scan at the block scanSeed selects, a
// new one each cycle, so that a run's figures average over many start
// positions instead of repeating one; the server picks its own start.
func (st *state) run(ctx context.Context, item int, args []any, scanSeed uint64, traced bool) sample {
	it := st.w.mix[item]
	s := sample{item: item, args: args, traced: traced, exact: it.exact}
	var res *fastframe.Result
	var ex *fastframe.ExactResult
	var err error
	switch it.via {
	case engineStream:
		res, err = st.runStream(ctx, it, scanSeed, &s)
	case boundQuery:
		res, err = st.runBound(ctx, it, args, scanSeed, &s)
	case httpQuery, httpStream:
		res, ex, err = st.runHTTP(ctx, it, args, &s)
	}
	if err == nil {
		err = st.check(it, args, res, ex, &s)
	}
	if err != nil {
		s.failed, s.err = true, err.Error()
	}
	return s
}

func (st *state) check(it mixItem, args []any, res *fastframe.Result, ex *fastframe.ExactResult, s *sample) error {
	want := st.oracle[key(it.sql, args)]
	if it.exact {
		s.engine = ex.Duration
		if !sameExact(ex, want.ex) {
			return errors.New("exact result differs from the oracle")
		}
		return nil
	}
	s.engine, s.blocks, s.rows, s.rounds = res.Duration, res.BlocksFetched, res.RowsCovered, res.Rounds
	ok, width := checkIntervals(res, want.ex, want.trivial)
	if !ok {
		return errors.New("final interval misses the exact answer")
	}
	s.width = width
	return nil
}

// mark records a progress snapshot arriving now.
func (s *sample) mark(traced bool) {
	now := time.Now()
	if s.ttfi == 0 {
		s.ttfi = now.Sub(s.start)
	}
	if traced {
		s.marks = append(s.marks, now)
	}
}

func (st *state) runStream(ctx context.Context, it mixItem, scanSeed uint64, s *sample) (*fastframe.Result, error) {
	s.start = time.Now()
	rows, err := st.eng.Stream(ctx, it.sql, fastframe.WithSeed(scanSeed))
	if err != nil {
		return nil, err
	}
	for rows.Next() {
		s.mark(s.traced)
	}
	res, err := rows.Final()
	s.latency = time.Since(s.start)
	return res, err
}

func (st *state) runBound(ctx context.Context, it mixItem, args []any, scanSeed uint64, s *sample) (*fastframe.Result, error) {
	s.start = time.Now()
	b, err := st.stmts[it.sql].Bind(args...)
	if err != nil {
		return nil, err
	}
	res, err := b.Query(ctx, fastframe.WithSeed(scanSeed), fastframe.WithProgress(func(fastframe.Progress) bool {
		s.mark(s.traced)
		return true
	}))
	s.latency = time.Since(s.start)
	return res, err
}

// countingReader counts the response bytes the client reads.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

func (st *state) runHTTP(ctx context.Context, it mixItem, args []any, s *sample) (*fastframe.Result, *fastframe.ExactResult, error) {
	body, err := json.Marshal(serve.QueryRequest{SQL: it.sql, Args: args, Exact: it.exact})
	if err != nil {
		return nil, nil, err
	}
	path := "/v1/query"
	if it.via == httpStream {
		path = "/v1/stream"
	}
	s.start = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := st.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		// Reading to EOF lets the transport reuse the connection, as a
		// long-lived client's would be; a failed drain costs only that.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	cr := &countingReader{r: resp.Body}
	defer func() { s.respSize = cr.n }()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(cr) // the status already fails the request
		return nil, nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if it.via == httpQuery {
		var qr serve.QueryResponse
		err := json.NewDecoder(cr).Decode(&qr)
		s.latency = time.Since(s.start)
		if err != nil {
			return nil, nil, fmt.Errorf("decode response: %w", err)
		}
		return fromWire(qr.Result, qr.Exact, it.exact)
	}
	br := bufio.NewReader(cr)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var sl serve.StreamLine
			if err := json.Unmarshal(line, &sl); err != nil {
				return nil, nil, fmt.Errorf("decode stream line: %w", err)
			}
			switch {
			case sl.Error != nil:
				return nil, nil, errors.New("stream error: " + sl.Error.String())
			case sl.Result != nil:
				s.latency = time.Since(s.start)
				if s.ttfi == 0 {
					s.ttfi = s.latency
				}
				return fromWire(sl.Result, nil, false)
			case sl.Progress != nil:
				s.mark(s.traced)
			}
		}
		if err != nil {
			return nil, nil, fmt.Errorf("stream ended without a result: %w", err)
		}
	}
}

func fromWire(r *serve.Result, ex *serve.ExactResult, exact bool) (*fastframe.Result, *fastframe.ExactResult, error) {
	if exact {
		if ex == nil {
			return nil, nil, errors.New("exact response without an exact result")
		}
		out, err := ex.ToExactResult()
		return nil, out, err
	}
	if r == nil {
		return nil, nil, errors.New("response without a result")
	}
	out, err := r.ToResult()
	return out, nil, err
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/rdb"
	"repro/internal/storage"
)

// server is a running spdbd child process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  string // file holding the child's output
	done chan struct{}
	err  error // cmd.Wait's result, valid once done is closed
}

// startServer boots spdbd on a free loopback port over the graph in csv and
// waits until /readyz answers 200.
func (e *env) startServer(csv string) (*server, error) {
	if e.spdbd == "" {
		return nil, errors.New("serve_http needs the spdbd binary: pass -spdbd (benchmark/run.sh builds it)")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	logPath := filepath.Join(e.workdir, "spdbd.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	cmd := exec.Command(e.spdbd, "-load", csv, "-alg", "AUTO",
		"-lthd", strconv.FormatInt(e.sz.lthd, 10), "-cache", strconv.Itoa(e.sz.srvCache), "-addr", addr)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start spdbd: %w", err)
	}
	sv := &server{cmd: cmd, base: "http://" + addr, log: logPath, done: make(chan struct{})}
	go func() {
		sv.err = cmd.Wait()
		close(sv.done)
	}()

	client := &http.Client{Timeout: time.Second}
	deadline := time.After(120 * time.Second)
	for {
		resp, err := client.Get(sv.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sv, nil
			}
		}
		select {
		case <-sv.done:
			return nil, fmt.Errorf("spdbd exited before it was ready: %v\n%s", sv.err, sv.logTail())
		case <-e.ctx.Done():
			sv.stop()
			return nil, e.ctx.Err()
		case <-deadline:
			sv.stop()
			return nil, fmt.Errorf("spdbd not ready after 120s\n%s", sv.logTail())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop asks the server to shut down, waits for it, and kills it if it does
// not go. It returns only once the process has ended.
func (sv *server) stop() {
	sv.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-sv.done:
	case <-time.After(15 * time.Second):
		sv.cmd.Process.Kill()
		<-sv.done
	}
}

func (sv *server) logTail() string {
	data, _ := os.ReadFile(sv.log)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// serverStats is the part of spdbd's /stats document the benchmark reads.
type serverStats struct {
	Graph struct {
		Edges int `json:"edges"`
	} `json:"graph"`
	Concurrency core.ConcurrencyStats `json:"concurrency"`
	Cache       struct {
		Hits          uint64 `json:"hits"`
		Misses        uint64 `json:"misses"`
		Invalidations uint64 `json:"invalidations"`
	} `json:"cache"`
	DB struct {
		Statements  uint64 `json:"statements"`
		ParsePlanUS int64  `json:"parse_plan_us"`
		ExecUS      int64  `json:"exec_us"`
		PlanCache   struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"plan_cache"`
		Pool storage.PoolStats `json:"pool"`
		IO   storage.IOStats   `json:"io"`
	} `json:"db"`
}

// dbStats recasts the /stats db block as the rdb.Stats the in-process
// workloads read, so one function derives the layer counts for both.
func (s *serverStats) dbStats() rdb.Stats {
	return rdb.Stats{
		Statements:      s.DB.Statements,
		ParsePlanDur:    time.Duration(s.DB.ParsePlanUS) * time.Microsecond,
		ExecDur:         time.Duration(s.DB.ExecUS) * time.Microsecond,
		PlanCacheHits:   s.DB.PlanCache.Hits,
		PlanCacheMisses: s.DB.PlanCache.Misses,
		Pool:            s.DB.Pool,
		IO:              s.DB.IO,
	}
}

func (sv *server) stats(ctx context.Context) (*serverStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sv.base+"/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("/stats: %w", err)
	}
	return &st, nil
}

// queryReply is the part of a POST /query answer the benchmark checks.
type queryReply struct {
	Found      bool    `json:"found"`
	Distance   int64   `json:"distance"`
	Path       []int64 `json:"path"`
	Cached     bool    `json:"cached"`
	Iterations int     `json:"iterations"`
	DurationUS int64   `json:"duration_us"`
	Error      string  `json:"error"`
	Trace      *struct {
		GateWaitUS int64 `json:"gate_wait_us"`
		PlanUS     int64 `json:"plan_us"`
		PEUS       int64 `json:"pe_us"`
		SCUS       int64 `json:"sc_us"`
		FPRUS      int64 `json:"fpr_us"`
		TotalUS    int64 `json:"total_us"`
	} `json:"trace"`
}

// result recasts the reply as the engine answer it was rendered from.
func (r *queryReply) result() core.QueryResult {
	return core.QueryResult{Found: r.Found, Distance: r.Distance, Path: core.Path{Nodes: r.Path}}
}

// stageStats recasts a ?debug=trace timeline as the QueryStats it was
// rendered from.
func (r *queryReply) stageStats() *core.QueryStats {
	if r.Trace == nil {
		return nil
	}
	usd := func(v int64) time.Duration { return time.Duration(v) * time.Microsecond }
	return &core.QueryStats{
		CacheHit: r.Cached, Iterations: r.Iterations,
		GateWait: usd(r.Trace.GateWaitUS), PlanDur: usd(r.Trace.PlanUS),
		PE: usd(r.Trace.PEUS), SC: usd(r.Trace.SCUS), FPR: usd(r.Trace.FPRUS), Total: usd(r.Trace.TotalUS),
	}
}

// serve_http sends its requests in chunks of srvChunk and runs the calibration
// kernel srvChunkTicks times after each.
const (
	srvChunk      = 100
	srvChunkTicks = 12
)

// exchange is one request and what came back.
type exchange struct {
	start  time.Time
	dur    time.Duration
	status int
	reply  queryReply
	err    error
}

// failure is why the exchange counts as failed before its answer is even
// looked at: a transport error or a status other than 200.
func (ex *exchange) failure() error {
	if ex.err == nil && ex.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", ex.status, ex.reply.Error)
	}
	return ex.err
}

// post sends one query over the client's keep-alive connection.
func post(ctx context.Context, client *http.Client, url string, p [2]int64) exchange {
	body := fmt.Sprintf(`{"source":%d,"target":%d}`, p[0], p[1])
	ex := exchange{start: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader([]byte(body)))
	if err != nil {
		ex.err = err
		return ex
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		ex.err = err
		ex.dur = time.Since(ex.start)
		return ex
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ex.dur = time.Since(ex.start)
	ex.status = resp.StatusCode
	if err != nil {
		ex.err = err
		return ex
	}
	if err := json.Unmarshal(data, &ex.reply); err != nil {
		ex.err = fmt.Errorf("bad response body: %w", err)
	}
	return ex
}

// runServe is serve_http: the spdbd server as a subprocess, asked over
// keep-alive connections for a mix of hot pairs its path cache holds and cold
// pairs it cannot keep, so four requests in five hit the cache and the rest
// search under concurrency.
func (e *env) runServe(setupOnly bool) error {
	t0 := time.Now()
	in, err := newInputs(e.sz.srvN, e.seed)
	if err != nil {
		return err
	}
	csv := filepath.Join(e.workdir, "graph.csv")
	if err := in.mirror.SaveFile(csv); err != nil {
		return fmt.Errorf("write graph: %w", err)
	}
	tBoot := time.Now()
	sv, err := e.startServer(csv)
	if err != nil {
		return err
	}
	defer sv.stop()
	setup, boot := time.Since(t0), time.Since(tBoot)
	e.setupDone(setup)
	e.metrics["spdbd.boot_s"] = boot.Seconds()
	if setupOnly {
		return nil
	}

	mix := in.mix(e.sz.srvHot, e.sz.srvCold, e.sz.srvRequests)
	universe, reqs := mix.universe, mix.reqs
	clients := make([]*http.Client, e.clients)
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
		defer clients[i].CloseIdleConnections()
	}
	pid := sv.cmd.Process.Pid

	// sendChunk has the clients ask for reqs, sharing them out by a common
	// cursor, and stores every exchange in request order.
	var lagTotal time.Duration
	sendChunk := func(reqs []int, out []exchange, url string) {
		var next atomic.Int64
		var lag atomic.Int64
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *http.Client) {
				defer wg.Done()
				begin, busy := time.Now(), time.Duration(0)
				for {
					k := int(next.Add(1)) - 1
					if k >= len(reqs) || e.ctx.Err() != nil {
						break
					}
					out[k] = post(e.ctx, c, url, universe[reqs[k]])
					busy += out[k].dur
				}
				lag.Add(int64(time.Since(begin) - busy))
			}(c)
		}
		wg.Wait()
		lagTotal += time.Duration(lag.Load())
	}
	// send replays one list of requests in chunks, with the calibration
	// kernel run between chunks while the server is idle.
	send := func(reqs []int, url string, fixed bool) []exchange {
		out := make([]exchange, len(reqs))
		for a := 0; a < len(reqs); a += srvChunk {
			b := min(a+srvChunk, len(reqs))
			sendChunk(reqs[a:b], out[a:b], url)
			e.cal.tick(srvChunkTicks)
			if fixed {
				e.sampleRSS(pid)
			}
		}
		return out
	}

	// Warm-up: the checked warm-up pairs, then one unmeasured pass that fills
	// the path cache, so every measured pass sees its steady-state hit share.
	e.warmUp(in, func(p [2]int64) (core.QueryResult, error) {
		ex := post(e.ctx, clients[0], sv.base+"/query", p)
		return ex.reply.result(), ex.failure()
	})
	for _, ex := range send(reqs, sv.base+"/query", false) {
		if ex.err != nil {
			return fmt.Errorf("warm-up: %w", ex.err)
		}
	}

	statsStart, err := sv.stats(e.ctx)
	if err != nil {
		return err
	}
	var (
		hitUS, missMS, overheadUS []float64
		times, fixed              queryAgg
		statsFixed                *serverStats
		fixedRequests             int
		cached, non2xx, served    int
		root                      = e.beginTrace()
	)
	passes, err := e.runPasses(func(i int, traced bool) (passStat, error) {
		url := sv.base + "/query"
		if traced {
			url += "?debug=trace"
		}
		cpu0, err := cpuOf(pid)
		if err != nil {
			return passStat{}, err
		}
		begin := time.Now()
		out := send(reqs, url, i < e.sz.fixed)
		busy := time.Since(begin) - e.cal.wall
		cpu1, err := cpuOf(pid)
		if err != nil {
			return passStat{}, err
		}
		if err := e.ctx.Err(); err != nil {
			return passStat{}, err
		}

		st := passStat{queries: len(reqs), busy: busy, cpu: cpu1 - cpu0, latMS: make([]float64, len(reqs))}
		var agg queryAgg
		for k, ex := range out {
			p := universe[reqs[k]]
			idx := i*len(reqs) + k
			if ex.err == nil && ex.status/100 != 2 {
				non2xx++
			}
			e.check.answer(e.name, idx, in.mirror, p, ex.reply.result(), ex.failure())
			served++
			st.latMS[k] = ms(ex.dur)
			overheadUS = append(overheadUS, us(ex.dur)-float64(ex.reply.DurationUS))
			if ex.reply.Cached {
				cached++
				hitUS = append(hitUS, us(ex.dur))
			} else {
				missMS = append(missMS, ms(ex.dur))
			}
			if traced {
				qs := ex.reply.stageStats()
				agg.add(qs)
				s := e.tr.at(ex.start)
				id := e.tr.add(root, "http", idx, s, s+us(ex.dur), false)
				srv := e.tr.add(id, "server", idx, s, s+float64(ex.reply.DurationUS), true)
				e.tr.stages(srv, idx, s, qs)
			}
		}
		times.merge(agg)
		if i < e.sz.fixed {
			fixed.merge(agg)
			fixedRequests += len(reqs)
			if i == e.sz.fixed-1 {
				if statsFixed, err = sv.stats(e.ctx); err != nil {
					return passStat{}, err
				}
				if err := e.memory(pid); err != nil {
					return passStat{}, err
				}
			}
		}
		return st, nil
	})
	if err != nil {
		return err
	}
	e.endTrace(root)

	e.timing(passes)
	e.metrics["stored_bytes_per_edge"] = float64(statsFixed.DB.IO.Allocs) * storage.PageSize / float64(statsFixed.Graph.Edges)
	e.dbCounts(statsStart.dbStats(), statsFixed.dbStats(), fixedRequests)
	e.metrics["core.cache_hit_ratio"] = ratio(float64(cached), float64(served))
	e.metrics["core.cache_invalidations"] = float64(statsFixed.Cache.Invalidations - statsStart.Cache.Invalidations)
	e.metrics["core.snapshot_retries"] = float64(statsFixed.Concurrency.SnapshotRetries)
	e.metrics["core.peak_readers"] = float64(statsFixed.Concurrency.Gate.PeakReaders)
	e.metrics["spdbd.hit_path_us_p50"] = median(hitUS)
	e.metrics["spdbd.miss_path_ms_p50"] = median(missMS)
	e.metrics["spdbd.overhead_us_p50"] = median(overheadUS)
	e.metrics["spdbd.non_2xx"] = float64(non2xx)
	e.metrics["bench.generator_lag_ms"] = ms(lagTotal) / float64(served+len(reqs))
	if e.trace {
		// Only traced passes carry the engine's stage timings; expansions,
		// visited rows and affected tuples are not on the HTTP surface.
		e.coreMetrics(times, fixed)
		e.mdjBaseline(in.mirror, universe[:e.sz.ladderPairs])
	}
	return nil
}

// Command lrmload is the end-to-end serving benchmark for lrmserve. It
// builds cmd/lrmserve, starts it as a child process on a loopback port
// with fresh state directories, drives POST /answer with closed-loop
// clients, checks every answer, and reports the metrics a user of the
// server sees. With -trace 1 it also replays the same requests in
// process through each layer's public functions and reports per-layer
// metrics instead.
//
// Run it from the repository root through bench/run.sh, which keeps the
// build inside the checkout:
//
//	bash bench/run.sh --workload warm-single --seed 1 --seconds 15 --trace 0
//
// or from bench/ with go run (all workloads, a result document):
//
//	go run ./lrmload -seed 1 -out results/seed1.json
//
// Each workload prints `workload metric value unit` lines; the last line
// of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. The exit status is non-zero when any
// correctness gate fails. Linux only: it reads /proc.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"lrm/internal/engine"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

// config is one invocation's settings.
type config struct {
	server  string // lrmserve binary
	workdir string // scratch space for server state, inside the checkout
	seed    int64
	seconds float64 // measured time per workload
	trace   bool
	// coldPool is the number of distinct W generated for a cold
	// workload.
	coldPool int
}

func run(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("lrmload", flag.ContinueOnError)
	var (
		names    = fs.String("workload", "all", "comma-separated workloads to run, or all: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Int64("seed", 1, "seed every generated input derives from")
		seconds  = fs.Float64("seconds", 20, "measured seconds per workload")
		trace    = fs.Int("trace", 0, "1: report per-layer metrics from an in-process replay instead of the end-to-end metrics")
		out      = fs.String("out", "", "write the result document (JSON) here")
		traceOut = fs.String("trace-out", "", "with -trace 1, write the spans here (JSON lines)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	defs, err := selectWorkloads(*names)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "lrmload: bad arguments: %v\n", err)
		return 2
	}
	repo, err := findRepo()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lrmload: %v\n", err)
		return 2
	}
	cfg := config{
		workdir:  filepath.Join(repo, ".bench_build", "lrmload"),
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		coldPool: coldPoolSize(*seconds),
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "lrmload: %v\n", err)
		return 1
	}
	if cfg.server, err = buildServer(ctx, repo, cfg.workdir); err != nil {
		fmt.Fprintf(os.Stderr, "lrmload: %v\n", err)
		return 1
	}

	doc := resultDoc{Provenance: newProvenance(cfg)}
	for _, def := range defs {
		wr, err := runWorkload(ctx, cfg, def)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lrmload: %s: %v\n", def.Name, err)
			return 1
		}
		for _, m := range wr.Metrics {
			fmt.Fprintf(stdout, "%s %s %.6g %s\n", def.Name, m.Name, m.Value, m.Unit)
		}
		for _, g := range wr.Gates {
			if !g.Pass {
				fmt.Fprintf(os.Stderr, "lrmload: %s: gate %s failed: %s\n", def.Name, g.Name, g.Detail)
			}
		}
		doc.Workloads = append(doc.Workloads, wr)
	}
	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			fmt.Fprintf(os.Stderr, "lrmload: %v\n", err)
			return 1
		}
	}
	if *traceOut != "" && cfg.trace {
		if err := writeSpans(*traceOut, doc.Workloads); err != nil {
			fmt.Fprintf(os.Stderr, "lrmload: %v\n", err)
			return 1
		}
	}
	line := summary(doc.Workloads, cfg.trace)
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lrmload: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !line.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, d := range workloads {
		out = append(out, d.Name)
	}
	return out
}

func selectWorkloads(names string) ([]workloadDef, error) {
	if names == "all" {
		return workloads, nil
	}
	var defs []workloadDef
	for _, n := range strings.Split(names, ",") {
		d, ok := workloadByName(strings.TrimSpace(n))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		defs = append(defs, d)
	}
	return defs, nil
}

// findRepo returns the repository root: the nearest directory at or
// above the working directory that holds cmd/lrmserve.
func findRepo() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "lrmserve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cmd/lrmserve not found: run inside an lrm checkout")
		}
		dir = parent
	}
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric BENCHMARK.json declares.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in its
// order: a run reports the first with -trace 0 and the second with
// -trace 1, for every workload.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"},
		{"latency_p50_ms", "ms"},
		{"latency_tail_ms", "ms"},
		{"throughput_rps", "1/s"},
		{"server_cpu_ms_per_req", "ms"},
		{"peak_rss_mb", "MiB"},
	}
	perLayer = []metricDef{
		{"serve.decode_ms", "ms"},
		{"workload.build_ms", "ms"},
		{"workload.fingerprint_ms", "ms"},
		{"engine.answer_ms", "ms"},
		{"engine.self_ms", "ms"},
		{"mechanism.answer_ms", "ms"},
		{"privacy.spend_ms", "ms"},
		{"serve.encode_ms", "ms"},
		{"serve.request_kb", "KiB"},
		{"serve.response_kb", "KiB"},
		{"mat.answer_mflop", "Mflop"},
		{"mat.answer_mb", "MiB"},
		{"plan.new_ms", "ms"},
		{"plan.lrm_share", "ratio"},
		{"mat.svd_ms", "ms"},
		{"core.decompose_ms", "ms"},
		{"core.alm_outer_iterations", "count"},
		{"engine.hit_ratio", "ratio"},
		{"engine.prepares_per_req", "ratio"},
		{"engine.batched_share", "ratio"},
		{"engine.evictions", "count"},
		{"engine.disk_writes", "count"},
		{"privacy.eps_per_req", "eps"},
		{"privacy.wal_kb", "KiB"},
		{"engine.cache_dir_mb", "MiB"},
		{"engine.cache_dir_files", "count"},
		{"serve.transport_ms", "ms"},
		{"loadgen.cpu_ms_per_req", "ms"},
	}
)

// serverInfo describes one server start.
type serverInfo struct {
	SetupS  float64     `json:"setup_s"`
	Kernels kernelStats `json:"kernels"`
}

// workloadRun is one workload's result.
type workloadRun struct {
	Workload string `json:"workload"`
	Correct  bool   `json:"correct"`
	// Attempted counts requests sent (served and, with -trace 1,
	// replayed); Failed counts failed requests plus failed gates.
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	Phases       map[string]*phase `json:"phases"`
	Servers      []serverInfo      `json:"servers"`
	Gates        []gate            `json:"gates"`
	Metrics      []metric          `json:"metrics"`
	ReplayErrors []string          `json:"replay_errors,omitempty"`

	spans []span
}

func (w *workloadRun) add(name, unit string, v float64) {
	w.Metrics = append(w.Metrics, metric{Name: name, Value: v, Unit: unit})
}

func (w *workloadRun) value(name string) (float64, bool) {
	for _, m := range w.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// coldPoolSize is the number of distinct cold W a run of the given
// length generates: 20 requests per second, over twice the cold
// throughput measured on two cores, plus the setup starts.
func coldPoolSize(seconds float64) int { return int(20*seconds) + 16 }

// rounds is the number of alternations of the latency and capacity
// phases in a run.
const rounds = 4

// served is what a workload's served phases measured.
type served struct {
	setup, lat, capa *phase
	servers          []serverInfo
	// delta is the server's /stats counter change over the timed
	// phases, spent the tenant's ε spent over them.
	delta engine.Stats
	spent float64
	// serverCPU and loadgenCPU are the two processes' CPU time over the
	// latency phase.
	serverCPU, loadgenCPU time.Duration
	rssMB, cacheMB, walMB float64
	cacheFiles            int
}

// runWorkload runs one workload against fresh servers.
func runWorkload(ctx context.Context, cfg config, def workloadDef) (*workloadRun, error) {
	T := time.Duration(cfg.seconds * float64(time.Second))
	latD, capD, starts := 2*T/3, T/3, 3
	if cfg.trace {
		latD, capD, starts = T/3, T/6, 1
	}
	in, err := generate(def, cfg.seed, cfg.coldPool)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	lp, err := prepareLocal(in, tr)
	if err != nil {
		return nil, fmt.Errorf("analytic preparation: %w", err)
	}
	sv, err := serve(ctx, cfg, def, &source{reqs: in.reqs, cold: def.Cold}, starts, latD, capD)
	if err != nil {
		return nil, err
	}
	wr := &workloadRun{
		Workload: def.Name,
		Phases:   map[string]*phase{"setup": sv.setup, "latency": sv.lat, "capacity": sv.capa},
		Servers:  sv.servers,
	}
	for _, p := range wr.Phases {
		wr.Attempted += p.Attempted
		wr.Failed += p.Failed
	}

	// Correctness gates.
	mse := ratio(sv.lat.sse, float64(sv.lat.entries))
	wr.Gates = []gate{
		noiseGate(mse, lp.mse, def.Band),
		prepareGate(def.Cold, sv.delta, sv.lat.Succeeded+sv.capa.Succeeded),
	}
	if def.Tenant != "" {
		wr.Gates = append(wr.Gates, spendGate(sv.spent, sv.lat.Histograms+sv.capa.Histograms))
	}
	for _, g := range wr.Gates {
		if !g.Pass {
			wr.Failed++
		}
	}

	if cfg.trace {
		rr, err := replay(ctx, in, lp, cfg.seed, cfg.workdir, T/2, tr)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		wr.Attempted += rr.requests
		wr.Failed += rr.failed
		wr.ReplayErrors = rr.errors
		wr.spans = tr.spans
		wr.addPerLayer(sv, rr, tr)
	} else {
		wr.addEndToEnd(def, sv, mse, lp.mse)
	}
	wr.Correct = wr.Failed == 0
	return wr, nil
}

// serve starts the workload's server starts times, timing each set-up,
// then drives the last one through the latency and capacity phases.
func serve(ctx context.Context, cfg config, def workloadDef, src *source, starts int, latD, capD time.Duration) (*served, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	// Set-up: each start is timed from exec to /healthz answering to the
	// first answer of the workload; the last start serves the phases.
	sv := &served{setup: &phase{Clients: 1}, lat: &phase{Clients: 1}, capa: &phase{Clients: maxClients}}
	var srv *server
	for i := 0; i < starts; i++ {
		s, info, err := startMeasured(ctx, cfg, def, hc, src, sv.setup)
		if err != nil {
			return nil, err
		}
		sv.servers = append(sv.servers, info)
		if i < starts-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()

	// The latency and capacity phases alternate in rounds, so both sample
	// the whole run: a shared host's speed can drift over seconds, and a phase
	// measured in one contiguous block would catch only part of that.
	pid := srv.cmd.Process.Pid
	st0, err := srv.stats(ctx, hc)
	if err != nil {
		return nil, err
	}
	for i := 0; i < rounds; i++ {
		cpu0, err := cpuTime(pid)
		if err != nil {
			return nil, err
		}
		self0 := selfCPU()
		sv.lat.merge(runPhase(ctx, hc, srv.base, src, 1, latD/rounds, true))
		sv.loadgenCPU += selfCPU() - self0
		cpu1, err := cpuTime(pid)
		if err != nil {
			return nil, err
		}
		sv.serverCPU += cpu1 - cpu0
		sv.capa.merge(runPhase(ctx, hc, srv.base, src, maxClients, capD/rounds, false))
	}
	st1, err := srv.stats(ctx, hc)
	if err != nil {
		return nil, err
	}
	sv.delta = statsDelta(st0.Engine, st1.Engine)
	sv.spent = st1.spent(def.Tenant) - st0.spent(def.Tenant)
	if sv.rssMB, err = peakRSSMB(pid); err != nil {
		return nil, err
	}
	if sv.cacheMB, sv.cacheFiles, err = dirUsage(srv.cacheDir); err != nil {
		return nil, err
	}
	if sv.walMB, _, err = dirUsage(srv.budgetDir); err != nil {
		return nil, err
	}
	return sv, ctx.Err()
}

// addEndToEnd adds the end-to-end metrics, and the numbers printed
// beside them.
func (w *workloadRun) addEndToEnd(def workloadDef, sv *served, mse, analytic float64) {
	var setups []float64
	for _, s := range sv.servers {
		setups = append(setups, s.SetupS)
	}
	// The tail percentile is fixed per workload so the metric means the
	// same on every run; a run too short to support it says so.
	n := len(sv.lat.latencies)
	if supportedPercentile(n, def.Tail) < def.Tail {
		fmt.Fprintf(os.Stderr, "lrmload: %s: only %d of %d latency samples lie beyond p%g\n", def.Name, n-rank(n, def.Tail), n, def.Tail)
	}
	w.add("setup_s", "s", median(setups))
	w.add("latency_p50_ms", "ms", median(sv.lat.latencies))
	w.add("latency_tail_ms", "ms", percentile(sv.lat.latencies, def.Tail))
	w.add("throughput_rps", "1/s", float64(sv.capa.Succeeded)/sv.capa.Seconds)
	w.add("server_cpu_ms_per_req", "ms", ratio(ms(sv.serverCPU), float64(sv.lat.Succeeded)))
	w.add("peak_rss_mb", "MiB", sv.rssMB)
	w.add("answer_mse", "count^2", mse)
	w.add("answer_mse_ratio", "ratio", mse/analytic)
	w.add("latency_tail_percentile", "%", def.Tail)
	w.add("latency_samples", "count", float64(n))
	w.add("error_share", "ratio", ratio(float64(w.Failed), float64(w.Attempted)))
}

// addPerLayer adds the per-layer metrics from the trace and the served
// run's counters.
func (w *workloadRun) addPerLayer(sv *served, rr *replayResult, tr *tracer) {
	dur, self := tr.layerTimes()
	stages := 0.0
	for _, n := range []string{"serve.decode", "workload.build", "workload.fingerprint", "engine.answer", "serve.encode"} {
		stages += dur[n]
	}
	p50 := median(sv.lat.latencies)
	d, requests := sv.delta, float64(sv.delta.Requests)
	w.add("serve.decode_ms", "ms", dur["serve.decode"])
	w.add("workload.build_ms", "ms", dur["workload.build"])
	w.add("workload.fingerprint_ms", "ms", dur["workload.fingerprint"])
	w.add("engine.answer_ms", "ms", dur["engine.answer"])
	w.add("engine.self_ms", "ms", self["engine.answer"])
	w.add("mechanism.answer_ms", "ms", dur["mechanism.answer"])
	w.add("privacy.spend_ms", "ms", dur["privacy.spend"])
	w.add("serve.encode_ms", "ms", dur["serve.encode"])
	w.add("serve.request_kb", "KiB", median(rr.requestKB))
	w.add("serve.response_kb", "KiB", median(rr.responseKB))
	w.add("mat.answer_mflop", "Mflop", rr.mflop)
	w.add("mat.answer_mb", "MiB", rr.mb)
	w.add("plan.new_ms", "ms", dur["plan.new"])
	w.add("plan.lrm_share", "ratio", ratio(float64(rr.lrmPlans), float64(rr.plans)))
	w.add("mat.svd_ms", "ms", dur["mat.svd"])
	w.add("core.decompose_ms", "ms", dur["core.decompose"])
	w.add("core.alm_outer_iterations", "count", median(rr.almIters))
	w.add("engine.hit_ratio", "ratio", ratio(float64(d.Hits), float64(d.Hits+d.Misses)))
	w.add("engine.prepares_per_req", "ratio", ratio(float64(d.Prepares), requests))
	w.add("engine.batched_share", "ratio", ratio(float64(d.Batched), requests))
	w.add("engine.evictions", "count", float64(d.Evictions))
	w.add("engine.disk_writes", "count", float64(d.DiskWrites))
	w.add("privacy.eps_per_req", "eps", ratio(sv.spent, requests))
	w.add("privacy.wal_kb", "KiB", sv.walMB*1024)
	w.add("engine.cache_dir_mb", "MiB", sv.cacheMB)
	w.add("engine.cache_dir_files", "count", float64(sv.cacheFiles))
	w.add("serve.transport_ms", "ms", p50-stages)
	w.add("loadgen.cpu_ms_per_req", "ms", ratio(ms(sv.loadgenCPU), float64(sv.lat.Attempted)))
	w.add("latency_p50_ms", "ms", p50)
	w.add("stage_coverage", "ratio", stages/p50)
}

// startMeasured starts a server and times its set-up; the first
// request's outcome is recorded in setup.
func startMeasured(ctx context.Context, cfg config, def workloadDef, hc *http.Client, src *source, setup *phase) (*server, serverInfo, error) {
	var info serverInfo
	t0 := time.Now()
	s, err := startServer(cfg.server, cfg.workdir, def)
	if err != nil {
		return nil, info, err
	}
	fail := func(err error) (*server, serverInfo, error) {
		s.stop()
		return nil, info, err
	}
	if err := s.waitHealthy(ctx, hc, time.Minute); err != nil {
		return fail(err)
	}
	failed := setup.Failed
	if !setup.send(ctx, hc, s.base, src, true) || setup.Failed > failed {
		return fail(fmt.Errorf("first request failed: %v", setup.Errors))
	}
	info.SetupS = time.Since(t0).Seconds()
	st, err := s.stats(ctx, hc)
	if err != nil {
		return fail(err)
	}
	info.Kernels = st.Kernels
	return s, info, nil
}

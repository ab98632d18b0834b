// Command perfbench is the repository's benchmark. It runs the GVFS
// client proxy in its shipped default configuration — options parsed
// from gvfsproxy's own flag set — against an in-process image server,
// on four workloads (wan-session, wan-clone, wan-reclone,
// loopback-mix; see README.md), and prints every end-to-end metric by
// name and unit.
//
//	perfbench --workload wan-clone --seed 1 --seconds 45 --trace 0
//
// --workload all runs every workload in turn. --trace 1 makes a
// traced run: alternate rounds mount with the layer probes on, and the
// run reports per-layer metrics and the tracing overhead instead.
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0
// only when every byte read and every acknowledged write checked out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics BENCHMARK.json bounds, reported by every
// run with tracing off. Each is steady between runs on the workloads
// BENCHMARK.json lists: setup_s and first_iter_s are medians over the
// run's rounds or clients, clone_s the median over its VMs, boot_s the
// median over each image's first boot in a round, wan_mb the median
// bytes per round on the image server's link. flush_s is the fastest
// write-back of the run's rounds: on the WAN workloads a write-back is
// about one round trip, and a stalled wake-up on a busy host adds up to
// 13 ms to it in a varying share of rounds, which moves a median of a
// few rounds by more than its bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"first_iter_s", "s"},
	{"flush_s", "s"},
	{"wan_mb", "MB"},
	{"clone_s", "s"},
	{"boot_s", "s"},
}

// unbounded are end-to-end metrics printed on every untraced run but
// left out of BENCHMARK.json and the result line: on a two-vCPU
// virtual machine they spread between runs by more than the 25 % a
// bound may allow (journal fsync latency and CPU steal; see
// README.md). warm_iter_ms
// is the median later iteration; ops_per_s the iterations' block calls
// over their wall time; the percentiles pool every 8 KiB call made in
// the iterations.
var unbounded = []metricDef{
	{"warm_iter_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"write_p50_us", "us"},
	{"write_p99_us", "us"},
}

// perLayer are reported by traced runs (see collectLayers), each the
// median over the run's traced rounds.
var perLayer = []metricDef{
	{"error_rate", "ratio"},
	{"trace.overhead_pct", "%"},
	{"pagecache.hit_ratio", "ratio"},
	{"pagecache.evictions", "count"},
	{"gvfs.read_s", "s"},
	{"gvfs.write_s", "s"},
	{"sunrpc.rpc_us", "us"},
	{"sunrpc.reads_per_call", "count"},
	{"sunrpc.writes_per_call", "count"},
	{"proxy.read_hit_ratio", "ratio"},
	{"proxy.read_hit_us", "us"},
	{"proxy.read_miss_ms", "ms"},
	{"proxy.write_us", "us"},
	{"proxy.prefetched", "count"},
	{"proxy.writes_absorbed", "count"},
	{"proxy.zero_filtered", "count"},
	{"proxy.filechan_fetches", "count"},
	{"cache.misses", "count"},
	{"cache.writebacks", "count"},
	{"cache.evictions", "count"},
	{"cache.journal_appends", "count"},
	{"cache.journal_syncs", "count"},
	{"cache.appends_per_sync", "count"},
	{"nfs3be.data_calls", "count"},
	{"nfs3be.meta_calls", "count"},
	{"nfs3be.server_ms", "ms"},
	{"simnet.wan_up_bytes", "bytes"},
	{"simnet.wan_down_bytes", "bytes"},
}

// minRounds is the fewest rounds a run makes, even when a round
// outlasts --seconds.
const minRounds = 3

// setupSamples is the fewest set-ups a run measures. Set-up is short
// and spreads more than the rest of a round, so once the full rounds
// are done, set-up-only rounds bring the count up to it.
const setupSamples = 15

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run.
type result struct {
	attempted int
	failed    int
	firstErr  error
	metrics   map[string]metricValue
	config    map[string]any
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, fullSizes)) }

// run executes the command line args with the given round sizes and
// returns the exit code.
func run(args []string, stdout, stderr io.Writer, sz sizes) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	name := fset.String("workload", "all", "wan-session | wan-clone | wan-reclone | loopback-mix | all")
	seed := fset.Int64("seed", 1, "seed the workload inputs are made from")
	seconds := fset.Int("seconds", 30, "measurement time per workload")
	trace := fset.Int("trace", 0, "1 = traced run: report per-layer metrics and the tracing overhead")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	} else if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	work, err := "", os.MkdirAll(".bench_build", 0o755)
	if err == nil {
		work, err = os.MkdirTemp(".bench_build", "perfbench-")
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(work)

	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: map[string]metricValue{}}
	for _, n := range names {
		res := runWorkload(n, *seed, time.Duration(*seconds)*time.Second, *trace == 1, sz, filepath.Join(work, n))
		cfg, _ := json.Marshal(res.config)
		fmt.Fprintf(stdout, "config %s\n", cfg)
		defs, extra := endToEnd, unbounded
		if *trace == 1 {
			defs, extra = perLayer, nil
		}
		for _, d := range extra {
			v := res.metrics[d.name]
			fmt.Fprintf(stdout, "metric %-12s %-24s %14.6g %s (unbounded)\n", n, d.name, v.Value, v.Unit)
		}
		for _, d := range defs {
			v := res.metrics[d.name]
			fmt.Fprintf(stdout, "metric %-12s %-24s %14.6g %s\n", n, d.name, v.Value, v.Unit)
			key := d.name
			if len(names) > 1 {
				key = n + "." + d.name
			}
			out.Metrics[key] = v
		}
		if res.failed > 0 {
			out.Correct = false
			fmt.Fprintf(stderr, "perfbench: %s: %d of %d ops failed; first: %v\n", n, res.failed, res.attempted, res.firstErr)
		}
		out.Attempted += res.attempted
		out.Failed += res.failed
	}
	line, _ := json.Marshal(out)
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

// runWorkload runs rounds of one workload until the next round would
// end past budget (but at least minRounds), then reduces them.
func runWorkload(name string, seed int64, budget time.Duration, traced bool, sz sizes, dir string) *result {
	w := workloads[name]
	e := &env{seed: seed, sz: sz, link: w.link}
	res := &result{}
	var rounds []*round
	var took []time.Duration
	start := time.Now()
	for i := 0; ; i++ {
		full := i < minRounds || time.Since(start)+median(took) <= budget
		if !full && i >= setupSamples {
			break
		}
		e.traced = full && traced && i%2 == 1
		e.setupOnly = !full
		e.dir = filepath.Join(dir, fmt.Sprintf("round%d", i))
		// Collect the last round's garbage (tens of MiB of images) now
		// rather than inside this round's set-up or flush.
		runtime.GC()
		t := time.Now()
		r, err := w.round(e)
		if full {
			took = append(took, time.Since(t))
		}
		os.RemoveAll(e.dir)
		if r != nil {
			rounds = append(rounds, r)
			res.attempted += r.attempted()
			res.failed += r.failed()
			if res.firstErr == nil {
				res.firstErr = r.firstErr()
			}
		}
		if err != nil {
			if r == nil || r.failed() == 0 {
				res.attempted++
				res.failed++
			}
			if res.firstErr == nil {
				res.firstErr = err
			}
			break
		}
	}
	res.metrics = reduce(rounds, res)
	res.config = configOf(name, seed, budget, traced, sz, e.flags, len(took), len(rounds))
	return res
}

// reduce turns rounds into the metric table: end-to-end metrics from
// untraced rounds, per-layer metrics from traced ones.
func reduce(rounds []*round, res *result) map[string]metricValue {
	var plain, traced []*round
	for _, r := range rounds {
		if r.layers != nil {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	var setups, flushes, firsts, warms, clones, boots []time.Duration
	var reads, writes []time.Duration
	var linkMB, rates []float64
	for _, r := range plain {
		setups = append(setups, r.setup)
		if r.setupOnly {
			continue
		}
		flushes = append(flushes, r.flush)
		firsts = append(firsts, r.firsts...)
		warms = append(warms, r.warms...)
		clones = append(clones, r.clones...)
		boots = append(boots, r.boots...)
		reads = append(reads, r.iter.reads...)
		writes = append(writes, r.iter.writes...)
		linkMB = append(linkMB, float64(r.linkUp+r.linkDown)/1e6)
		rates = append(rates, ratio(float64(r.iter.ops()), r.iterWall.Seconds()))
	}
	unit := map[string]string{}
	for _, defs := range [][]metricDef{endToEnd, unbounded, perLayer} {
		for _, d := range defs {
			unit[d.name] = d.unit
		}
	}
	m := map[string]metricValue{}
	set := func(name string, v float64) {
		u, ok := unit[name]
		if !ok {
			panic("perfbench: undefined metric " + name)
		}
		m[name] = metricValue{Value: v, Unit: u}
	}
	set("setup_s", median(setups).Seconds())
	set("first_iter_s", median(firsts).Seconds())
	set("warm_iter_ms", ms(median(warms)))
	set("flush_s", quantile(flushes, 0).Seconds())
	set("wan_mb", medianF(linkMB))
	set("clone_s", median(clones).Seconds())
	set("boot_s", median(boots).Seconds())
	set("ops_per_s", medianF(rates))
	set("read_p50_us", us(quantile(reads, 0.50)))
	set("read_p99_us", us(quantile(reads, 0.99)))
	set("write_p50_us", us(quantile(writes, 0.50)))
	set("write_p99_us", us(quantile(writes, 0.99)))

	set("error_rate", ratio(float64(res.failed), float64(res.attempted)))
	var tracedWall, plainWall []time.Duration
	for _, r := range traced {
		tracedWall = append(tracedWall, r.iterWall)
	}
	for _, r := range plain {
		if !r.setupOnly {
			plainWall = append(plainWall, r.iterWall)
		}
	}
	set("trace.overhead_pct", 100*ratio(
		median(tracedWall).Seconds()-median(plainWall).Seconds(), median(plainWall).Seconds()))
	for _, d := range perLayer {
		if _, done := m[d.name]; done {
			continue
		}
		var vals []float64
		for _, r := range traced {
			vals = append(vals, r.layers[d.name])
		}
		set(d.name, medianF(vals))
	}
	return m
}

// configOf records everything a changed default or environment would
// show up in: every parsed proxy flag, the toolchain, the CPU count,
// the sizes, the seed and the link profile.
func configOf(name string, seed int64, budget time.Duration, traced bool, sz sizes,
	flags map[string]string, rounds, setups int) map[string]any {
	link := workloads[name].link
	return map[string]any{
		"workload":         name,
		"seed":             seed,
		"seconds":          budget.Seconds(),
		"traced":           traced,
		"rounds":           rounds,
		"set_ups":          setups,
		"go":               runtime.Version(),
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"scale":            sz.scale,
		"clone_scale":      sz.cloneScale,
		"sizes":            sizesOf(sz),
		"page_cache_pages": pageCachePages,
		"link": map[string]any{
			"name": link.Name, "rtt": link.RTT.String(),
			"bandwidth_bytes_per_s": link.Bandwidth, "scale": link.Scale,
		},
		"proxy_flags": flags,
	}
}

func sizesOf(sz sizes) map[string]int {
	return map[string]int{
		"latex_iterations": sz.latexIters, "images": sz.images, "reclones": sz.reclones,
		"mix_blocks_per_session": sz.mixBlocks,
		"mix_iterations":         sz.mixBatches, "mix_ops_per_iteration": sz.mixBatchOps,
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of ds (0 when empty).
func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// quantile returns the q-quantile of ds, interpolating linearly
// between closest ranks (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	fs := make([]float64, len(ds))
	for i, d := range ds {
		fs[i] = float64(d)
	}
	return time.Duration(quantileF(fs, q))
}

func medianF(vs []float64) float64 { return quantileF(vs, 0.5) }

func quantileF(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

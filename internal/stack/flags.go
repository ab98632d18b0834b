package stack

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"gvfs/internal/backend/replbe"
	"gvfs/internal/cache"
	"gvfs/internal/obs"
	"gvfs/internal/qos"
	"gvfs/internal/tunnel"
)

// LogFlags collects the structured-logging knobs shared by every GVFS
// daemon (gvfsproxy and gvfsd bind the same three flags). Logger()
// turns the parsed values into the process logger.
type LogFlags struct {
	Level string // minimum severity recorded
	File  string // optional log file appended alongside stderr
	Ring  int    // /logz ring capacity (0 = no ring)
}

// BindLogFlags registers the logging flags on fs.
func BindLogFlags(fs *flag.FlagSet) *LogFlags {
	f := &LogFlags{}
	fs.StringVar(&f.Level, "log-level", "info", "minimum log severity: debug | info | warn | error")
	fs.StringVar(&f.File, "log-file", "", "append structured log lines to this file as well as stderr")
	fs.IntVar(&f.Ring, "log-ring", obs.DefaultLogRing, "retain the last N structured events for /logz (0 = no ring)")
	return f
}

// Logger builds the daemon's structured logger from the parsed flags:
// text lines to stderr (plus -log-file when given), a bounded event
// ring for /logz, and per-level counters in metrics. The returned
// close function releases the log file; call it at shutdown.
func (f *LogFlags) Logger(component string, metrics *obs.Registry) (*obs.Logger, func(), error) {
	level, err := obs.ParseLevel(f.Level)
	if err != nil {
		return nil, nil, err
	}
	var out io.Writer = os.Stderr
	closeFn := func() {}
	if f.File != "" {
		fl, err := os.OpenFile(f.File, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0644)
		if err != nil {
			return nil, nil, fmt.Errorf("open log file: %w", err)
		}
		out = io.MultiWriter(os.Stderr, fl)
		closeFn = func() { fl.Close() }
	}
	var ring *obs.LogRing
	if f.Ring > 0 {
		ring = obs.NewLogRing(f.Ring)
	}
	log := obs.NewLogger(obs.LoggerConfig{
		Level:   level,
		Output:  out,
		Ring:    ring,
		Metrics: metrics,
	})
	return log.Named(component), closeFn, nil
}

// ProxyFlags collects every command-line knob of a proxy daemon in one
// struct. BindProxyFlags registers them on a FlagSet and Options()
// turns the parsed values into the same ProxyOptions the benchmarks
// and the chaos/failure tests build directly — one construction path
// for daemons, benches and tests.
type ProxyFlags struct {
	// Daemon-level settings (not part of ProxyOptions). Listen is a
	// deployment address: the daemon copies it into
	// ProxyOptions.ListenAddr itself, so Options() callers that want an
	// ephemeral port keep one.
	Listen      string        // listen address for local NFS clients
	StatsEvery  time.Duration // periodic stats logging (0 = off)
	MetricsAddr string        // observability HTTP endpoint (empty = off)
	TraceRing   int           // request-trace ring capacity (0 = off)

	// Flight recorder (see obs.FlightRecorder).
	FlightRing    int           // retained slow/error recordings (0 = off)
	SlowThreshold time.Duration // latency that promotes a call (0 = default)

	// Log holds the shared logging flags (also bindable standalone via
	// BindLogFlags for daemons that are not proxies, like gvfsd).
	Log *LogFlags

	// Chain topology.
	Upstream string // next hop address
	Keyfile  string // 32-byte tunnel session key file

	// Backend selection (see ProxyOptions.Backend).
	Backend     string // nfs3 | objstore | repl
	ObjstoreDir string // object store directory (backend objstore)
	Dedup       bool   // content-addressed cross-file dedup in the block cache

	// Replicated backend (see ProxyOptions.Replicas / replbe.Config).
	Replicas       string        // comma-separated replica specs (backend repl)
	ReplQuorum     bool          // majority-ack writes instead of primary-ack
	ReplHedgeQuant float64       // hedged-read latency quantile (0 = default, <0 off)
	ReplScrub      time.Duration // scrub pass interval (0 = default, <0 off)
	ReplFailThresh int           // consecutive errors marking a replica down (0 = default)
	ReplProbeEvery time.Duration // down-replica probe period (0 = default)

	// Block cache.
	CacheDir   string
	CacheBanks int
	CacheSets  int
	CacheAssoc int
	CacheBlock int
	Stripes    int
	Policy     string // write-back | write-through

	// Crash consistency.
	Journal     bool   // journal dirty blocks before acking (write-back only)
	JournalSync string // batch | always | none
	Crashpoint  string // fault injection: die at this named point (testing)

	// File cache + channel.
	FileCacheDir string
	FileChan     string

	// Behaviour knobs.
	ReadAhead        int
	WriteCoalesce    int
	PersistIndex     bool
	IdleWriteBack    time.Duration
	CallTimeout      time.Duration
	MaxRetries       int
	DegradedReads    bool
	FailureThreshold int
	ProbeInterval    time.Duration

	// Overload protection (see qos.Config and DESIGN.md §8).
	QoS           bool          // enable per-client admission control
	QoSInflight   int           // global concurrency cap (0 = default)
	QoSQueue      int           // per-client queue bound (0 = default)
	QoSQuantum    int           // fair-share quantum in bytes (0 = default)
	QoSRate       float64       // per-client token rate, bytes/s (0 = off)
	QoSBurst      float64       // token-bucket capacity (0 = rate)
	BrownoutEnter time.Duration // EWMA queue delay tripping brownout (0 = off)
	BrownoutExit  time.Duration // EWMA delay clearing brownout (0 = enter/4)
	CallBudget    time.Duration // default end-to-end call deadline (0 = off)

	// Cache analytics (see internal/cachean and DESIGN.md §11).
	Cachean bool // enable miss-ratio curves + working-set estimation
}

// BindProxyFlags registers the proxy daemon's flags on fs and returns
// the struct they parse into.
func BindProxyFlags(fs *flag.FlagSet) *ProxyFlags {
	f := &ProxyFlags{}
	fs.StringVar(&f.Listen, "listen", "127.0.0.1:8049", "listen address for local NFS clients")
	fs.StringVar(&f.Upstream, "upstream", "", "next hop (gvfsd or another gvfsproxy); required with -backend nfs3")
	fs.StringVar(&f.Keyfile, "keyfile", "", "32-byte session key for the upstream tunnel")
	fs.StringVar(&f.Backend, "backend", BackendNFS3, "upstream backend: nfs3 (RPC to -upstream) | objstore (local content-addressed store) | repl (replicated set, see -replicas)")
	fs.StringVar(&f.ObjstoreDir, "objstore-dir", "", "object store directory (required with -backend objstore)")
	fs.StringVar(&f.Replicas, "replicas", "", "comma-separated replica specs for -backend repl: objstore:<dir> | nfs3:<host:port> (first is the write primary)")
	fs.BoolVar(&f.ReplQuorum, "repl-quorum", false, "acknowledge writes after a majority of replicas instead of the primary only")
	fs.Float64Var(&f.ReplHedgeQuant, "repl-hedge-quantile", 0, "latency quantile arming hedged reads (0 = default 0.95, negative = hedging off)")
	fs.DurationVar(&f.ReplScrub, "repl-scrub", 0, "background scrub/read-repair pass interval (0 = default 30s, negative = off)")
	fs.IntVar(&f.ReplFailThresh, "repl-fail-threshold", 0, "consecutive failover-class errors that mark a replica down (0 = default 3)")
	fs.DurationVar(&f.ReplProbeEvery, "repl-probe-interval", 0, "recovery probe period for down replicas (0 = default 1s)")
	fs.BoolVar(&f.Dedup, "dedup", false, "share identical cached blocks across files (content-addressed dedup; needs -cache-dir)")
	fs.StringVar(&f.CacheDir, "cache-dir", "", "block cache directory (empty = no disk cache)")
	fs.IntVar(&f.CacheBanks, "cache-banks", 512, "number of cache banks")
	fs.IntVar(&f.CacheSets, "cache-sets", 128, "sets per bank")
	fs.IntVar(&f.CacheAssoc, "cache-assoc", 16, "cache associativity")
	fs.IntVar(&f.CacheBlock, "cache-block", 8192, "cache block size (<= 32768)")
	fs.IntVar(&f.Stripes, "cache-stripes", 0, "cache lock stripes (0 = default 64; 1 = single global lock)")
	fs.StringVar(&f.Policy, "policy", "write-back", "write policy: write-back | write-through")
	fs.BoolVar(&f.Journal, "journal", true, "journal dirty blocks before acking writes (write-back only)")
	fs.StringVar(&f.JournalSync, "journal-sync", "batch", "journal durability: batch (group fsync) | always (fsync per write) | none (testing)")
	fs.StringVar(&f.Crashpoint, "crashpoint", os.Getenv("GVFS_CRASHPOINT"), "fault injection: SIGKILL the process at this named point (testing only)")
	fs.StringVar(&f.FileCacheDir, "filecache-dir", "", "file cache directory (enables meta-data handling)")
	fs.StringVar(&f.FileChan, "filechan", "", "image server file-channel address")
	fs.IntVar(&f.ReadAhead, "readahead", 0, "sequential read-ahead window in blocks (0 = off)")
	fs.IntVar(&f.WriteCoalesce, "write-coalesce", 0, "merge runs of adjacent dirty blocks into WRITEs up to this many bytes at flush (0 = off, max 32768)")
	fs.BoolVar(&f.PersistIndex, "persist-index", true, "reload/save the disk cache index across restarts")
	fs.DurationVar(&f.IdleWriteBack, "idle-writeback", 0, "write dirty data back after this idle period (0 = only on signals)")
	fs.DurationVar(&f.StatsEvery, "stats", 0, "print proxy statistics at this interval (0 = off)")
	fs.DurationVar(&f.CallTimeout, "call-timeout", 0, "per-call deadline on upstream RPCs (0 = wait forever)")
	fs.IntVar(&f.MaxRetries, "max-retries", 0, "retransmission attempts for idempotent upstream calls (0 = no retries)")
	fs.BoolVar(&f.DegradedReads, "degraded-reads", false, "serve cached data while the upstream is unreachable")
	fs.IntVar(&f.FailureThreshold, "failure-threshold", 0, "consecutive upstream failures that open the circuit breaker (0 = default)")
	fs.DurationVar(&f.ProbeInterval, "probe-interval", 0, "recovery probe period while the breaker is open (0 = default)")
	fs.StringVar(&f.MetricsAddr, "metrics", "", "serve /metrics, /traces, /logz, /flightrec, /statusz and /debug on this address (empty = off)")
	fs.IntVar(&f.TraceRing, "trace-ring", 0, "keep the last N request traces for /traces (0 = tracing off)")
	fs.IntVar(&f.FlightRing, "flightrec", 0, "retain the last N slow/error call recordings for /flightrec (0 = off)")
	fs.DurationVar(&f.SlowThreshold, "slow-threshold", 0, "latency that promotes a call to the flight recorder (0 = default 100ms)")
	fs.BoolVar(&f.QoS, "qos", false, "enable per-client admission control and fair-share scheduling")
	fs.IntVar(&f.QoSInflight, "qos-inflight", 0, "global concurrent-call cap under -qos (0 = default 64)")
	fs.IntVar(&f.QoSQueue, "qos-queue", 0, "per-client admission queue bound under -qos (0 = default 128)")
	fs.IntVar(&f.QoSQuantum, "qos-quantum", 0, "fair-share round-robin quantum in bytes (0 = default 64KiB)")
	fs.Float64Var(&f.QoSRate, "qos-rate", 0, "per-client token-bucket rate in bytes/s (0 = no rate limit)")
	fs.Float64Var(&f.QoSBurst, "qos-burst", 0, "per-client token-bucket capacity in bytes (0 = rate)")
	fs.DurationVar(&f.BrownoutEnter, "brownout-enter", 0, "sustained queue delay that trips brownout degradation (0 = off)")
	fs.DurationVar(&f.BrownoutExit, "brownout-exit", 0, "queue delay below which brownout clears (0 = enter/4)")
	fs.DurationVar(&f.CallBudget, "call-budget", 0, "default end-to-end deadline for calls without a propagated budget (0 = off)")
	fs.BoolVar(&f.Cachean, "cachean", false, "enable cache analytics: miss-ratio curves, working sets, what-if sizing (/cachez)")
	f.Log = BindLogFlags(fs)
	return f
}

// ParsePolicy maps a policy flag value to the cache write policy.
func ParsePolicy(name string) (cache.Policy, error) {
	switch name {
	case "write-back":
		return cache.WriteBack, nil
	case "write-through":
		return cache.WriteThrough, nil
	}
	return 0, fmt.Errorf("unknown policy %q", name)
}

// ReadKeyfile loads and validates a tunnel session key. An empty path
// returns a nil key (no tunnel).
func ReadKeyfile(path string) ([]byte, error) {
	if path == "" {
		return nil, nil
	}
	key, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(key) != tunnel.KeySize {
		return nil, fmt.Errorf("key must be %d bytes, got %d", tunnel.KeySize, len(key))
	}
	return key, nil
}

// Options converts the parsed flags into ProxyOptions, reading the
// keyfile and validating the write policy, journal mode and backend
// selection. The daemon-level fields (Listen, StatsEvery, MetricsAddr)
// stay on the flags struct.
func (f *ProxyFlags) Options() (ProxyOptions, error) {
	key, err := ReadKeyfile(f.Keyfile)
	if err != nil {
		return ProxyOptions{}, err
	}
	policy, err := ParsePolicy(f.Policy)
	if err != nil {
		return ProxyOptions{}, err
	}
	syncMode, err := cache.ParseSyncMode(f.JournalSync)
	if err != nil {
		return ProxyOptions{}, err
	}
	opts := ProxyOptions{
		Backend:             f.Backend,
		UpstreamAddr:        f.Upstream,
		UpstreamKey:         key,
		ObjstoreDir:         f.ObjstoreDir,
		ReadAhead:           f.ReadAhead,
		PersistIndex:        f.PersistIndex,
		IdleWriteBack:       f.IdleWriteBack,
		UpstreamCallTimeout: f.CallTimeout,
		UpstreamMaxRetries:  f.MaxRetries,
		DegradedReads:       f.DegradedReads,
		FailureThreshold:    f.FailureThreshold,
		ProbeInterval:       f.ProbeInterval,
		TraceRing:           f.TraceRing,
		FlightRing:          f.FlightRing,
		SlowThreshold:       f.SlowThreshold,
		CallBudget:          f.CallBudget,
		Cachean:             f.Cachean,
	}
	switch f.Backend {
	case "", BackendNFS3:
		if f.Upstream == "" {
			return ProxyOptions{}, fmt.Errorf("-upstream is required with -backend nfs3")
		}
	case BackendObjstore:
		if f.ObjstoreDir == "" {
			return ProxyOptions{}, fmt.Errorf("-objstore-dir is required with -backend objstore")
		}
	case BackendRepl:
		if f.Replicas == "" {
			return ProxyOptions{}, fmt.Errorf("-replicas is required with -backend repl")
		}
		opts.Replicas = strings.Split(f.Replicas, ",")
		if f.ReplQuorum || f.ReplHedgeQuant != 0 || f.ReplScrub != 0 ||
			f.ReplFailThresh != 0 || f.ReplProbeEvery != 0 {
			opts.ReplConfig = &replbe.Config{
				Quorum:        f.ReplQuorum,
				HedgeQuantile: f.ReplHedgeQuant,
				ScrubInterval: f.ReplScrub,
				FailThreshold: f.ReplFailThresh,
				ProbeInterval: f.ReplProbeEvery,
			}
		}
	default:
		return ProxyOptions{}, fmt.Errorf("unknown -backend %q (want nfs3, objstore or repl)", f.Backend)
	}
	if f.Dedup && f.CacheDir == "" {
		return ProxyOptions{}, fmt.Errorf("-dedup needs -cache-dir")
	}
	if f.QoS || f.BrownoutEnter > 0 {
		opts.QoS = &qos.Config{
			MaxConcurrent:  f.QoSInflight,
			PerClientQueue: f.QoSQueue,
			Quantum:        f.QoSQuantum,
			RatePerSec:     f.QoSRate,
			Burst:          f.QoSBurst,
			BrownoutEnter:  f.BrownoutEnter,
			BrownoutExit:   f.BrownoutExit,
		}
	}
	if f.CacheDir != "" {
		opts.CacheConfig = &cache.Config{
			Dir: f.CacheDir, Banks: f.CacheBanks, SetsPerBank: f.CacheSets,
			Assoc: f.CacheAssoc, BlockSize: f.CacheBlock, Policy: policy,
			Stripes: f.Stripes, Journal: f.Journal, JournalSync: syncMode,
			WriteCoalesce: f.WriteCoalesce, Dedup: f.Dedup,
		}
	}
	if f.FileCacheDir != "" {
		opts.FileCacheDir = f.FileCacheDir
		opts.FileChanAddr = f.FileChan
		opts.FileChanKey = key
	}
	return opts, nil
}

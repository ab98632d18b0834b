package stack

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	gvfs "gvfs"
	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/tunnel"
)

func parseFlags(t *testing.T, args ...string) *ProxyFlags {
	t.Helper()
	fs := flag.NewFlagSet("gvfsproxy", flag.ContinueOnError)
	f := BindProxyFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f
}

func TestProxyFlagsFullCommandLine(t *testing.T) {
	keyFile := filepath.Join(t.TempDir(), "session.key")
	key := make([]byte, tunnel.KeySize)
	for i := range key {
		key[i] = byte(i)
	}
	if err := os.WriteFile(keyFile, key, 0o600); err != nil {
		t.Fatal(err)
	}

	f := parseFlags(t,
		"-listen", "127.0.0.1:9999",
		"-upstream", "img:7049",
		"-keyfile", keyFile,
		"-cache-dir", "/tmp/cache",
		"-cache-banks", "16", "-cache-sets", "4", "-cache-assoc", "2",
		"-cache-block", "4096", "-cache-stripes", "8",
		"-policy", "write-through",
		"-journal-sync", "always",
		"-filecache-dir", "/tmp/fcache", "-filechan", "img:7050",
		"-readahead", "4", "-persist-index=false",
		"-idle-writeback", "5s", "-call-timeout", "2s", "-max-retries", "3",
		"-degraded-reads", "-failure-threshold", "7", "-probe-interval", "1s",
		"-metrics", "127.0.0.1:9049", "-trace-ring", "256",
		"-flightrec", "128", "-slow-threshold", "150ms",
		"-log-level", "debug", "-log-file", "/tmp/gvfs.log", "-log-ring", "512",
	)
	if f.Listen != "127.0.0.1:9999" || f.MetricsAddr != "127.0.0.1:9049" || f.StatsEvery != 0 {
		t.Errorf("daemon fields wrong: %+v", f)
	}

	opts, err := f.Options()
	if err != nil {
		t.Fatalf("Options: %v", err)
	}
	if opts.UpstreamAddr != "img:7049" {
		t.Errorf("UpstreamAddr = %q", opts.UpstreamAddr)
	}
	if string(opts.UpstreamKey) != string(key) {
		t.Error("keyfile contents not loaded into UpstreamKey")
	}
	cc := opts.CacheConfig
	if cc == nil {
		t.Fatal("cache-dir must produce a CacheConfig")
	}
	want := cache.Config{Dir: "/tmp/cache", Banks: 16, SetsPerBank: 4, Assoc: 2,
		BlockSize: 4096, Policy: cache.WriteThrough, Stripes: 8,
		Journal: true, JournalSync: cache.SyncAlways}
	if *cc != want {
		t.Errorf("CacheConfig = %+v, want %+v", *cc, want)
	}
	if opts.FileCacheDir != "/tmp/fcache" || opts.FileChanAddr != "img:7050" {
		t.Errorf("file cache fields wrong: %+v", opts)
	}
	if string(opts.FileChanKey) != string(key) {
		t.Error("file channel must reuse the session key")
	}
	if opts.ReadAhead != 4 || opts.PersistIndex || opts.IdleWriteBack != 5*time.Second {
		t.Errorf("behaviour knobs wrong: %+v", opts)
	}
	if opts.UpstreamCallTimeout != 2*time.Second || opts.UpstreamMaxRetries != 3 {
		t.Errorf("fault-tolerance knobs wrong: %+v", opts)
	}
	if !opts.DegradedReads || opts.FailureThreshold != 7 || opts.ProbeInterval != time.Second {
		t.Errorf("breaker knobs wrong: %+v", opts)
	}
	if opts.TraceRing != 256 {
		t.Errorf("TraceRing = %d, want 256", opts.TraceRing)
	}
	if opts.FlightRing != 128 || opts.SlowThreshold != 150*time.Millisecond {
		t.Errorf("flight recorder knobs wrong: ring=%d slow=%v", opts.FlightRing, opts.SlowThreshold)
	}
	if f.Log == nil {
		t.Fatal("BindProxyFlags must bind log flags")
	}
	if f.Log.Level != "debug" || f.Log.File != "/tmp/gvfs.log" || f.Log.Ring != 512 {
		t.Errorf("log flags wrong: %+v", f.Log)
	}
}

func TestLogFlagsLogger(t *testing.T) {
	logFile := filepath.Join(t.TempDir(), "out.log")
	fs := flag.NewFlagSet("gvfsd", flag.ContinueOnError)
	lf := BindLogFlags(fs)
	if err := fs.Parse([]string{"-log-level", "warn", "-log-file", logFile, "-log-ring", "8"}); err != nil {
		t.Fatal(err)
	}
	logger, closeLog, err := lf.Logger("testd", nil)
	if err != nil {
		t.Fatalf("Logger: %v", err)
	}
	defer closeLog()
	logger.Info("below threshold")
	logger.Warn("at threshold", "k", "v")
	data, err := os.ReadFile(logFile)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if !strings.Contains(out, "at threshold") || strings.Contains(out, "below threshold") {
		t.Errorf("level filter not applied to file sink:\n%s", out)
	}
	if ring := logger.Ring(); ring == nil {
		t.Error("-log-ring 8 must attach a ring")
	} else if evs := ring.Events(); len(evs) != 1 || evs[0].Msg != "at threshold" {
		t.Errorf("ring events = %+v, want the single warn event", evs)
	}

	// An unknown level is an error.
	bad := &LogFlags{Level: "shout"}
	if _, _, err := bad.Logger("testd", nil); err == nil {
		t.Error("bogus -log-level must be rejected")
	}
}

func TestProxyFlagsDefaultsAndErrors(t *testing.T) {
	// Defaults: no cache, write-back policy, persist-index on.
	f := parseFlags(t, "-upstream", "up:1")
	opts, err := f.Options()
	if err != nil {
		t.Fatalf("Options: %v", err)
	}
	if opts.CacheConfig != nil || opts.FileCacheDir != "" || opts.UpstreamKey != nil {
		t.Errorf("defaults produced non-empty optional config: %+v", opts)
	}
	if !opts.PersistIndex {
		t.Error("persist-index must default to true")
	}

	// Missing -upstream is an error.
	if _, err := parseFlags(t).Options(); err == nil {
		t.Error("empty -upstream must be rejected")
	}
	// Unknown policy is an error.
	if _, err := parseFlags(t, "-upstream", "u:1", "-policy", "bogus").Options(); err == nil {
		t.Error("bogus policy must be rejected")
	}
	// Unknown journal sync mode is an error.
	if _, err := parseFlags(t, "-upstream", "u:1", "-journal-sync", "bogus").Options(); err == nil {
		t.Error("bogus journal-sync must be rejected")
	}
	// Journaling defaults on with batched sync.
	f2 := parseFlags(t, "-upstream", "u:1", "-cache-dir", "/tmp/c")
	opts2, err := f2.Options()
	if err != nil {
		t.Fatal(err)
	}
	if !opts2.CacheConfig.Journal || opts2.CacheConfig.JournalSync != cache.SyncBatch {
		t.Errorf("journal defaults wrong: %+v", opts2.CacheConfig)
	}
	// Bad keyfile (wrong size) is an error.
	short := filepath.Join(t.TempDir(), "short.key")
	if err := os.WriteFile(short, []byte("tiny"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := parseFlags(t, "-upstream", "u:1", "-keyfile", short).Options(); err == nil {
		t.Error("short keyfile must be rejected")
	}
}

// TestProxyFlagsBackends parses each -backend selection, checks the
// options it yields, and starts a proxy from them on the address the
// daemon would copy from -listen.
func TestProxyFlagsBackends(t *testing.T) {
	nfs, err := StartNFSServer(memfs.New(), NFSServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer nfs.Close()
	dir := t.TempDir()
	r1, r2 := filepath.Join(dir, "r1"), filepath.Join(dir, "r2")
	cases := []struct {
		name  string
		args  []string
		check func(ProxyOptions) bool
	}{
		{"nfs3", []string{"-upstream", nfs.Addr},
			func(o ProxyOptions) bool { return o.Backend == BackendNFS3 && o.UpstreamAddr == nfs.Addr }},
		{"objstore", []string{"-backend", "objstore", "-objstore-dir", filepath.Join(dir, "obj"),
			"-cache-dir", filepath.Join(dir, "cache"), "-dedup"},
			func(o ProxyOptions) bool {
				return o.Backend == BackendObjstore && o.ObjstoreDir == filepath.Join(dir, "obj") &&
					o.CacheConfig != nil && o.CacheConfig.Dedup
			}},
		{"repl", []string{"-backend", "repl", "-replicas", "objstore:" + r1 + ",objstore:" + r2,
			"-repl-fail-threshold", "5"},
			func(o ProxyOptions) bool {
				return o.Backend == BackendRepl && len(o.Replicas) == 2 &&
					o.ReplConfig != nil && o.ReplConfig.FailThreshold == 5
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := parseFlags(t, append(tc.args, "-listen", "127.0.0.1:0")...)
			opts, err := f.Options()
			if err != nil {
				t.Fatalf("Options: %v", err)
			}
			if !tc.check(opts) {
				t.Fatalf("options wrong: %+v", opts)
			}
			if opts.ListenAddr != "" {
				t.Errorf("Options() set ListenAddr %q; the daemon owns it", opts.ListenAddr)
			}
			opts.ListenAddr = f.Listen
			node, err := StartProxy(opts)
			if err != nil {
				t.Fatalf("StartProxy: %v", err)
			}
			defer node.Close()
			if !strings.HasPrefix(node.Addr, "127.0.0.1:") {
				t.Errorf("node listens on %q, want a loopback port", node.Addr)
			}
			sess, err := gvfs.Mount(gvfs.SessionConfig{Addr: node.Addr, Export: "/"})
			if err != nil {
				t.Fatalf("mount: %v", err)
			}
			defer sess.Close()
			if err := sess.WriteFile("/f", []byte("hello")); err != nil {
				t.Fatalf("write: %v", err)
			}
			if got, err := sess.ReadFile("/f"); err != nil || string(got) != "hello" {
				t.Fatalf("read back %q, %v", got, err)
			}
		})
	}

	for _, args := range [][]string{
		{"-backend", "objstore"},
		{"-backend", "repl"},
		{"-backend", "bogus", "-upstream", "u:1"},
		{"-upstream", "u:1", "-dedup"},
	} {
		if _, err := parseFlags(t, args...).Options(); err == nil {
			t.Errorf("Options accepted %v", args)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"

	"gvfs/internal/memfs"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
)

// tinySizes keep the self-tests' smoke runs short.
var tinySizes = sizes{
	scale:       256,
	latexIters:  3,
	cloneScale:  1024,
	images:      2,
	reclones:    3,
	mixBlocks:   256,
	mixBatches:  3,
	mixBatchOps: 100,
}

// benchmarkFile is the part of BENCHMARK.json the self-tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmokeEveryMetric runs each workload at tiny sizes, untraced and
// traced, and checks that the last line reports exactly the metrics
// BENCHMARK.json names, with their units, and that the exit code
// agrees with the failure count.
func TestSmokeEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmark(t)
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json names workload %q, the benchmark has no such workload", w.Name)
		}
	}
	for _, w := range workloadOrder {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w, "--seed", "3", "--seconds", "1", "--trace", trace}, &stdout, &stderr, tinySizes)
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   bool                   `json:"correct"`
				Attempted int                    `json:"attempted"`
				Failed    int                    `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v\n%s", w, trace, err, stdout.String())
			}
			if res.Attempted < 1 || res.Correct != (res.Failed == 0) || (code == 0) != res.Correct {
				t.Errorf("%s trace %s: exit %d with correct=%v attempted=%d failed=%d\n%s",
					w, trace, code, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			want := b.EndToEnd
			if trace == "1" {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %s: metric %s missing", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace %s: metric %s unit %q, BENCHMARK.json says %q", w, trace, m.Name, got.Unit, m.Unit)
				case trace == "0" && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
		}
	}
}

// TestVerifierCatchesFlippedByte checks both verifiers: a read whose
// bytes differ from the model, and an image-server copy that differs
// from the acknowledged writes after write-back.
func TestVerifierCatchesFlippedByte(t *testing.T) {
	const bs = 8192
	fs := memfs.New()
	data := bytes.Repeat([]byte("gvfs-perfbench.."), 3*bs/16)
	if err := fs.WriteFile("/f", data); err != nil {
		t.Fatal(err)
	}
	ch, err := startChain(fs, simnet.Local(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ch.close()
	sess, err := ch.mount(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	f, err := sess.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	m := &model{path: "/f", data: append([]byte(nil), data...)}
	var rec recorder
	d := &vdisk{f: f, m: m, rec: &rec}
	buf := make([]byte, bs)

	m.data[5] ^= 0x01
	if _, err := d.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if rec.failed != 1 {
		t.Fatalf("read of a block whose model has a flipped byte: %d failures, want 1", rec.failed)
	}
	m.data[5] ^= 0x01
	if _, err := d.ReadAt(buf, bs); err != nil || rec.failed != 1 {
		t.Fatalf("clean read: err %v, failures %d, want 1 in total", err, rec.failed)
	}

	if _, err := d.WriteAt(bytes.Repeat([]byte{0xA5}, bs), bs); err != nil {
		t.Fatal(err)
	}
	if err := ch.proxy.Proxy.WriteBack(); err != nil {
		t.Fatal(err)
	}
	var clean recorder
	m.check(fs, &clean, bs)
	if clean.failed != 0 {
		t.Fatalf("server copy after write-back: %v", clean.firstErr)
	}
	m.data[2*bs+7] ^= 0x80
	var flipped recorder
	m.check(fs, &flipped, bs)
	if flipped.failed != 1 {
		t.Fatalf("server copy vs a model with one flipped byte: %d failures, want 1", flipped.failed)
	}
}

// TestProxyFlagsAreDefaults checks that the proxy under test differs
// from gvfsproxy's defaults only in the deployment settings the
// benchmark supplies.
func TestProxyFlagsAreDefaults(t *testing.T) {
	supplied := map[string]bool{"upstream": true, "keyfile": true, "cache-dir": true, "filecache-dir": true, "filechan": true}
	key := t.TempDir() + "/key"
	if err := os.WriteFile(key, make([]byte, 32), 0o600); err != nil {
		t.Fatal(err)
	}
	args := []string{"-upstream", "127.0.0.1:1", "-keyfile", key, "-cache-dir", "c", "-filecache-dir", "f", "-filechan", "127.0.0.1:2"}
	_, got, _, err := parseProxyFlags(args, "")
	if err != nil {
		t.Fatal(err)
	}
	fset := flag.NewFlagSet("gvfsproxy", flag.ContinueOnError)
	stack.BindProxyFlags(fset)
	n := 0
	fset.VisitAll(func(f *flag.Flag) {
		n++
		if !supplied[f.Name] && got[f.Name] != f.DefValue {
			t.Errorf("flag -%s = %q, default is %q", f.Name, got[f.Name], f.DefValue)
		}
	})
	if len(got) != n {
		t.Errorf("recorded %d flags, gvfsproxy has %d", len(got), n)
	}
}

// TestTracedConnFraming feeds reply records split at every byte
// boundary and checks that each completed record is counted once.
func TestTracedConnFraming(t *testing.T) {
	rec := func(last bool, body string) []byte {
		mark := uint32(len(body))
		if last {
			mark |= 0x80000000
		}
		return append([]byte{byte(mark >> 24), byte(mark >> 16), byte(mark >> 8), byte(mark)}, body...)
	}
	stream := append(rec(false, "abc"), rec(true, "de")...) // one record in two fragments
	stream = append(stream, rec(true, "")...)
	stream = append(stream, rec(true, "xyz")...)
	for split := 0; split <= len(stream); split++ {
		var c tracedConn
		done := c.consume(stream[:split]) + c.consume(stream[split:])
		if done != 3 {
			t.Fatalf("split at %d: %d records, want 3", split, done)
		}
	}
}

package proxy_test

import (
	"bytes"
	"testing"

	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/stack"

	gvfs "gvfs"
)

// patternPayload builds position-dependent content so a block stored
// at the wrong offset (a reply matched to the wrong request) fails
// comparison — a constant fill would hide ordering bugs.
func patternPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte((i / 512) * 13)
	}
	return p
}

// startPipelinedRAProxy starts a read-ahead proxy over the nfs3
// backend, a backend.BatchReader: each prefetch window goes upstream
// as one ReadBatch with all of its requests outstanding on the
// connection.
func startPipelinedRAProxy(t *testing.T, fs *memfs.FS) (*stack.Node, func()) {
	t.Helper()
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cache.Config{Dir: t.TempDir(), Banks: 16, SetsPerBank: 16, Assoc: 4,
		BlockSize: 8192, Policy: cache.WriteBack}
	node, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: server.ProxyAddr(),
		CacheConfig:  &cfg,
		ReadAhead:    8,
	})
	if err != nil {
		server.Close()
		t.Fatal(err)
	}
	return node, func() {
		node.Close()
		server.Close()
	}
}

// TestReadAheadPipelinedOrdering scans a file sequentially with the
// prefetch window pipelined on the upstream connection and verifies
// every block's bytes land at the right offset: each reply must be
// matched to its own request even with the whole window outstanding.
func TestReadAheadPipelinedOrdering(t *testing.T) {
	fs := memfs.New()
	payload := patternPayload(512 * 1024)
	fs.WriteFile("/seq.bin", payload)
	node, cleanup := startPipelinedRAProxy(t, fs)
	defer cleanup()

	sess, err := gvfs.Mount(gvfs.SessionConfig{Addr: node.Addr, Export: "/"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	got, err := sess.ReadFile("/seq.bin")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("sequential read through pipelined read-ahead: err=%v, equal=%v", err, bytes.Equal(got, payload))
	}
	if n := node.Proxy.Snapshot().Counter("gvfs_proxy_prefetched_total"); n == 0 {
		t.Error("no blocks prefetched on a fully sequential scan")
	}
	// Re-read after dropping the client cache: now mostly proxy-cache
	// hits on prefetched blocks; content must still match offset by
	// offset.
	sess.DropCaches()
	got, err = sess.ReadFile("/seq.bin")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("re-read after pipelined prefetch: err=%v", err)
	}
}

// TestReadAheadPipelinedDoesNotCorruptWrites interleaves demand writes
// with a sequential scan driving pipelined prefetches: dirty blocks
// must win over racing prefetched data.
func TestReadAheadPipelinedDoesNotCorruptWrites(t *testing.T) {
	fs := memfs.New()
	payload := patternPayload(256 * 1024)
	fs.WriteFile("/rw.bin", payload)
	node, cleanup := startPipelinedRAProxy(t, fs)
	defer cleanup()

	sess, err := gvfs.Mount(gvfs.SessionConfig{Addr: node.Addr, Export: "/"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	f, err := sess.Open("/rw.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 8192)
	patch := bytes.Repeat([]byte{0xFF}, 8192)
	for block := 0; block < 32; block++ {
		off := int64(block) * 8192
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		if block%4 == 0 {
			if _, err := f.WriteAt(patch, off); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := node.Proxy.Flush(); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.ReadFile("/rw.bin")
	for block := 0; block < 32; block++ {
		want := payload[block*8192]
		if block%4 == 0 {
			want = 0xFF
		}
		if data[block*8192] != want {
			t.Fatalf("block %d = %#x, want %#x", block, data[block*8192], want)
		}
	}
}

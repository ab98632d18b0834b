package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"

	gvfs "gvfs"
	"gvfs/internal/memfs"
	"gvfs/internal/obs"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
	"gvfs/internal/sunrpc"
)

// pageCachePages is every session's buffer cache: 8 MiB of 8 KiB
// pages, the paper's 512 MB VM page budget at 1/64 scale.
const pageCachePages = 1024

// chain is one deployment: an image server behind a simnet link and
// one client proxy built exactly as gvfsproxy builds itself.
type chain struct {
	fs     *memfs.FS
	link   *simnet.Link
	server *stack.ImageServer
	proxy  *stack.Node
	// flags holds every parsed proxy flag value, defaults included,
	// with the per-round directory replaced by "$RUN".
	flags map[string]string
}

// startChain starts the image server for fs behind a link with the
// given profile and a client proxy in front of it, keeping the proxy's
// files under dir. The proxy's options come from parsing gvfsproxy's
// own flag set; the benchmark supplies only the upstream and
// file-channel addresses, the cache directories, the tunnel key file
// and the simnet link.
func startChain(fs *memfs.FS, profile simnet.Profile, dir string) (*chain, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	link := simnet.NewLink(profile)
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{Link: link, Encrypt: true})
	if err != nil {
		return nil, fmt.Errorf("image server: %w", err)
	}
	c := &chain{fs: fs, link: link, server: server}
	keyfile := filepath.Join(dir, "tunnel.key")
	if err := os.WriteFile(keyfile, server.Key, 0o600); err != nil {
		c.close()
		return nil, err
	}
	args := []string{
		"-upstream", server.ProxyAddr(),
		"-keyfile", keyfile,
		"-cache-dir", filepath.Join(dir, "blockcache"),
		"-filecache-dir", filepath.Join(dir, "filecache"),
		"-filechan", server.FileChanAddr(),
	}
	pf, flags, opts, err := parseProxyFlags(args, dir)
	if err != nil {
		c.close()
		return nil, err
	}
	c.flags = flags
	opts.UpstreamLink = link
	opts.FileChanLink = link
	// The daemon publishes into one registry and logs through the
	// logger its flags describe; do the same.
	reg := obs.NewRegistry()
	opts.Metrics = reg
	logger, closeLog, err := pf.Log.Logger("gvfsproxy", reg)
	if err != nil {
		c.close()
		return nil, err
	}
	opts.Logger = logger
	node, err := stack.StartProxy(opts)
	if err != nil {
		closeLog()
		c.close()
		return nil, fmt.Errorf("client proxy: %w", err)
	}
	node.AddCleanup(closeLog)
	c.proxy = node
	return c, nil
}

// parseProxyFlags parses args with gvfsproxy's flag set and returns
// every flag's value plus the options the daemon would start with.
func parseProxyFlags(args []string, dir string) (*stack.ProxyFlags, map[string]string, stack.ProxyOptions, error) {
	fset := flag.NewFlagSet("gvfsproxy", flag.ContinueOnError)
	pf := stack.BindProxyFlags(fset)
	if err := fset.Parse(args); err != nil {
		return nil, nil, stack.ProxyOptions{}, err
	}
	opts, err := pf.Options()
	if err != nil {
		return nil, nil, stack.ProxyOptions{}, err
	}
	vals := make(map[string]string)
	fset.VisitAll(func(f *flag.Flag) {
		v := f.Value.String()
		if dir != "" {
			v = strings.ReplaceAll(v, dir, "$RUN")
		}
		// Addresses are ephemeral ports: keep them out of the diff.
		if _, _, err := net.SplitHostPort(v); err == nil && f.Name != "listen" {
			v = "$ADDR"
		}
		vals[f.Name] = v
	})
	return pf, vals, opts, nil
}

// mount opens a session on the client proxy. With a non-nil probe the
// session's transport is wrapped by it and its page cache publishes
// into a registry (the traced configuration).
func (c *chain) mount(p *probe) (*gvfs.Session, error) {
	cfg := gvfs.SessionConfig{
		Addr:           c.proxy.Addr,
		Export:         "/",
		Cred:           sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "compute"}.Encode(),
		PageCachePages: pageCachePages,
	}
	if p != nil {
		cfg.Dial = p.dial(c.proxy.Addr)
		cfg.Metrics = p.reg
	}
	return gvfs.Mount(cfg)
}

func (c *chain) close() {
	if c.proxy != nil {
		c.proxy.Close()
	}
	c.server.Close()
}

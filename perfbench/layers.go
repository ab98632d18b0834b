package main

import (
	"strings"

	"gvfs/internal/nfs3"
)

// collectLayers reads one traced round's per-layer counts from the
// instruments the layers already publish — the sessions' page-cache
// counters, the client proxy's Snapshot, the block cache's Stats and
// JournalStats, the image server proxy's per-procedure histograms and
// the link's Stats — plus the benchmark's own spans around File calls
// and on the session transports.
func collectLayers(d *deployment, r *round) map[string]float64 {
	m := make(map[string]float64)

	var pcHits, pcMisses, pcEvictions, calls, reads, writes uint64
	var busyUS float64
	for _, p := range d.probes {
		s := p.reg.Snapshot()
		pcHits += s.Counter("gvfs_pagecache_hits_total")
		pcMisses += s.Counter("gvfs_pagecache_misses_total")
		pcEvictions += s.Counter("gvfs_pagecache_evictions_total")
		c, rd, wr, busy := p.rpcStats()
		calls += c
		reads += rd
		writes += wr
		busyUS += float64(busy.Microseconds())
	}
	m["pagecache.hit_ratio"] = ratio(float64(pcHits), float64(pcHits+pcMisses))
	m["pagecache.evictions"] = float64(pcEvictions)
	m["gvfs.read_s"] = (r.iter.readTime + r.other.readTime).Seconds()
	m["gvfs.write_s"] = (r.iter.writeTime + r.other.writeTime).Seconds()
	m["sunrpc.rpc_us"] = ratio(busyUS, float64(calls))
	m["sunrpc.reads_per_call"] = ratio(float64(reads), float64(calls))
	m["sunrpc.writes_per_call"] = ratio(float64(writes), float64(calls))

	ps := d.proxy.Proxy.Snapshot()
	hits := float64(ps.Counter("gvfs_proxy_read_hits_total"))
	misses := float64(ps.Counter("gvfs_proxy_read_misses_total"))
	m["proxy.read_hit_ratio"] = ratio(hits, hits+misses)
	m["proxy.read_hit_us"] = ps.Histograms[`gvfs_proxy_read_duration_seconds{outcome="block_hit"}`].Mean() * 1e6
	m["proxy.read_miss_ms"] = ps.Histograms[`gvfs_proxy_read_duration_seconds{outcome="block_miss"}`].Mean() * 1e3
	m["proxy.write_us"] = ps.Histograms[`gvfs_proxy_rpc_duration_seconds{proc="WRITE"}`].Mean() * 1e6
	m["proxy.prefetched"] = float64(ps.Counter("gvfs_proxy_prefetched_total"))
	m["proxy.writes_absorbed"] = float64(ps.Counter("gvfs_proxy_writes_absorbed_total"))
	m["proxy.zero_filtered"] = float64(ps.Counter("gvfs_proxy_zero_filtered_total"))
	m["proxy.filechan_fetches"] = float64(ps.Counter("gvfs_proxy_filechan_fetches_total"))

	cs := d.proxy.BlockCache.Stats()
	js := d.proxy.BlockCache.JournalStats()
	m["cache.misses"] = float64(cs.Misses)
	m["cache.writebacks"] = float64(cs.WriteBacks)
	m["cache.evictions"] = float64(cs.Evictions)
	m["cache.journal_appends"] = float64(js.Appends)
	m["cache.journal_syncs"] = float64(js.Syncs)
	m["cache.appends_per_sync"] = ratio(float64(js.Appends), float64(js.Syncs))

	// Calls arriving at the image server's proxy, by procedure class.
	var data, meta, serverMS float64
	const prefix = `gvfs_proxy_rpc_duration_seconds{proc="`
	for key, h := range d.server.Proxy.Proxy.Snapshot().Histograms {
		proc, ok := strings.CutPrefix(key, prefix)
		if !ok || h.Count == 0 {
			continue
		}
		switch strings.TrimSuffix(proc, `"}`) {
		case nfs3.ProcName(nfs3.ProcRead), nfs3.ProcName(nfs3.ProcWrite), nfs3.ProcName(nfs3.ProcCommit):
			data += float64(h.Count)
		default:
			meta += float64(h.Count)
		}
		serverMS += h.Sum * 1e3
	}
	m["nfs3be.data_calls"] = data
	m["nfs3be.meta_calls"] = meta
	m["nfs3be.server_ms"] = serverMS

	m["simnet.wan_up_bytes"] = float64(r.linkUp)
	m["simnet.wan_down_bytes"] = float64(r.linkDown)
	return m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

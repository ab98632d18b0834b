package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	gvfs "gvfs"
	"gvfs/internal/memfs"
	"gvfs/internal/simnet"
	"gvfs/internal/vm"
	"gvfs/internal/workload"
)

// sizes fixes the amount of work in one round of each workload.
type sizes struct {
	// wan-session; scale also sizes loopback-mix's memory state
	scale      float64 // paper data sizes are divided by this
	latexIters int

	// wan-clone and wan-reclone
	cloneScale float64 // paper data sizes are divided by this
	images     int     // wan-clone: distinct images, each cloned once
	reclones   int     // wan-reclone: clones of its one image

	// loopback-mix, per session
	mixBlocks   int // working set in 8 KiB blocks
	mixBatches  int // iterations
	mixBatchOps int // ops per iteration
}

// fullSizes are the benchmark's sizes; see README.md for their
// relation to the session page cache and the proxy block cache.
var fullSizes = sizes{
	scale:       64,
	latexIters:  workload.LaTeXIterations,
	cloneScale:  256,
	images:      3,
	reclones:    3,
	mixBlocks:   4096,
	mixBatches:  12,
	mixBatchOps: 2000,
}

// round is the measurement of one round: a fresh deployment, its VMs'
// lifecycles and a final write-back.
type round struct {
	setupOnly bool // the round stopped after set-up

	setup  time.Duration
	clones []time.Duration
	boots  []time.Duration // each image's first boot in the round
	booted map[*image]bool
	firsts []time.Duration // first iteration of each client
	warms  []time.Duration // later iterations
	flush  time.Duration

	// iterWall is the wall time of the iterations; iter holds their
	// block calls.
	iterWall time.Duration
	iter     recorder
	other    recorder // clone, boot and verification outcomes

	linkUp, linkDown uint64
	layers           map[string]float64 // traced rounds only
}

func (r *round) attempted() int { return r.iter.attempted + r.other.attempted }
func (r *round) failed() int    { return r.iter.failed + r.other.failed }

func (r *round) firstErr() error {
	if r.iter.firstErr != nil {
		return r.iter.firstErr
	}
	return r.other.firstErr
}

// env is what a round needs from the run.
type env struct {
	seed   int64
	sz     sizes
	link   simnet.Profile // the image server's link
	dir    string         // scratch directory for this round
	traced bool
	// setupOnly makes the round return once set-up is measured.
	setupOnly bool
	flags     map[string]string // filled by the first round
}

// workloadDef is one workload: the image server's link and the
// function that runs one round.
type workloadDef struct {
	link  simnet.Profile
	round func(*env) (*round, error)
}

// workloads maps names to definitions. The WAN workloads cross
// simnet.WAN() (30 ms, 1.75 MB/s); loopback-mix has no WAN.
var workloads = map[string]workloadDef{
	"wan-session":  {simnet.WAN(), wanSession},
	"wan-clone":    {simnet.WAN(), wanClone},
	"wan-reclone":  {simnet.WAN(), wanReclone},
	"loopback-mix": {simnet.Local(), loopbackMix},
}

// workloadOrder is the order of the combined run.
var workloadOrder = []string{"wan-session", "wan-clone", "wan-reclone", "loopback-mix"}

// deployment is the part of a round shared by all workloads.
type deployment struct {
	*chain
	probes []*probe
	sess   []*gvfs.Session
}

func deploy(e *env, fs *memfs.FS, sessions int) (*deployment, error) {
	ch, err := startChain(fs, e.link, e.dir)
	if err != nil {
		return nil, err
	}
	if e.flags == nil {
		e.flags = ch.flags
	}
	d := &deployment{chain: ch}
	for i := 0; i < sessions; i++ {
		var p *probe
		if e.traced {
			p = newProbe()
			d.probes = append(d.probes, p)
		}
		s, err := ch.mount(p)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("mount: %w", err)
		}
		d.sess = append(d.sess, s)
	}
	return d, nil
}

func (d *deployment) close() {
	for _, s := range d.sess {
		s.Close()
	}
	d.chain.close()
}

// finish writes the client proxy's dirty data back (timed), reads the
// link and, in traced rounds, the layer counters, and then checks the
// image server's copies against every model and every VM.
func (d *deployment) finish(r *round, models []*model, vms []*instance) error {
	t0 := time.Now()
	err := d.proxy.Proxy.WriteBack()
	r.flush = time.Since(t0)
	r.other.attempted++
	if err != nil {
		r.other.fail(fmt.Errorf("write-back: %w", err))
		return err
	}
	st := d.link.Stats()
	r.linkUp, r.linkDown = st.Sent, st.Received
	if d.probes != nil {
		r.layers = collectLayers(d, r)
	}
	for _, m := range models {
		m.check(d.fs, &r.other, gvfs.DefaultBlockSize)
	}
	for _, in := range vms {
		in.verify(d.fs, &r.other)
	}
	return nil
}

// instantiate clones img over session i into cloneDir and boots it,
// reading its disk working set from lo on.
func (d *deployment) instantiate(r *round, i int, img *image, cloneDir string, lo int64, rec *recorder) (*instance, error) {
	in, dur, err := cloneVM(d.sess[i], img, cloneDir, rec)
	r.clones = append(r.clones, dur)
	if err != nil {
		return nil, err
	}
	dur, err = in.boot(lo, rec)
	if !r.booted[img] {
		// A later boot of the same image finds its working set cached;
		// only the first pages it in across the image server's link.
		r.boots = append(r.boots, dur)
	}
	if r.booted == nil {
		r.booted = map[*image]bool{}
	}
	r.booted[img] = true
	return in, err
}

// wanSession is the Fig 4 LaTeX session on WAN+C: one VM is cloned
// from the image server across the WAN and boots (reads only), then runs
// the LaTeX access pattern for latexIters iterations (the first one
// cold), and the session ends with the proxy's write-back. Compute
// phases are left out: they never touch the file system.
func wanSession(e *env) (*round, error) {
	r := &round{}
	t0 := time.Now()
	fs := memfs.New()
	img, err := installImage(fs, "/images/rh73", vm.Spec{
		Name:        "rh73",
		MemoryBytes: uint64(512 << 20 / e.sz.scale),
		DiskBytes:   uint64(2 << 30 / e.sz.scale),
		Seed:        e.seed,
	})
	if err != nil {
		return nil, err
	}
	d, err := deploy(e, fs, 1)
	if err != nil {
		return nil, err
	}
	defer d.close()
	r.setup = time.Since(t0)
	if e.setupOnly {
		r.setupOnly = true
		return r, nil
	}

	params := workload.Params{Scale: e.sz.scale}
	installs := workload.LaTeXInstall(params)
	var appEnd int64
	for _, f := range installs {
		appEnd += (int64(f.Size) + gvfs.DefaultBlockSize - 1) / gvfs.DefaultBlockSize * gvfs.DefaultBlockSize
	}
	in, err := d.instantiate(r, 0, img, "/clones/rh73", appEnd, &r.other)
	if err != nil {
		return r, err
	}
	defer in.close()
	disk := &vdisk{f: in.vm.Disk, m: img.disk, rec: &r.iter}
	g, err := workload.NewGuestFS(disk, img.spec.DiskBytes, d.sess[0].BlockSize(), installs)
	if err != nil {
		return r, err
	}
	for i := 0; i < e.sz.latexIters; i++ {
		t := time.Now()
		if err := latexIteration(g, params, i); err != nil {
			return r, err
		}
		dur := time.Since(t)
		r.iterWall += dur
		if i == 0 {
			r.firsts = append(r.firsts, dur)
		} else {
			r.warms = append(r.warms, dur)
		}
	}
	return r, d.finish(r, []*model{img.disk}, []*instance{in})
}

// latexIteration is one iteration of workload.LaTeX without its
// compute phase: patch one chapter, read the TeX distribution and
// every chapter, write the .aux/.dvi/.pdf outputs.
func latexIteration(g *workload.GuestFS, p workload.Params, iter int) error {
	target := fmt.Sprintf("doc/chapter%02d.tex", iter%20)
	if sz, ok := g.FileSize(target); ok && sz > 0 {
		if err := g.PatchFile(target, 0, sz/2+1); err != nil {
			return err
		}
	}
	reads := []string{"bin/texdist", "lib/fonts"}
	for j := 0; j < 20; j++ {
		reads = append(reads, fmt.Sprintf("doc/chapter%02d.tex", j))
	}
	for _, f := range reads {
		if _, err := g.ReadFile(f); err != nil {
			return err
		}
	}
	for _, out := range []struct {
		name string
		size uint64
	}{{"doc/main.aux", 256 << 10}, {"doc/main.dvi", 700 << 10}, {"doc/main.pdf", 900 << 10}} {
		if err := g.WriteFile(out.name, p.ScaledSize(out.size)); err != nil {
			return err
		}
	}
	return nil
}

// wanClone is the Fig 6 WAN-S2 setup: sz.images distinct golden images
// are cloned in sequence across the WAN through one client proxy
// and each clone boots. An iteration is one VM's clone plus boot.
func wanClone(e *env) (*round, error) { return cloneSequence(e, e.sz.images, 1) }

// wanReclone is the Fig 6 WAN-S1 setup: one golden image is cloned
// sz.reclones times in sequence across the WAN through one client
// proxy and each clone boots. The first clone is cold; the later ones
// find the memory state in the proxy's file cache and the disk
// working set in its block cache and the session's page cache.
func wanReclone(e *env) (*round, error) { return cloneSequence(e, 1, e.sz.reclones) }

// cloneSequence installs images golden images, then clones and boots
// each of them times in turn, image by image round-robin, over one
// session. An iteration is one VM's clone plus boot.
func cloneSequence(e *env, images, times int) (*round, error) {
	r := &round{}
	t0 := time.Now()
	fs := memfs.New()
	imgs := make([]*image, images)
	for i := range imgs {
		name := fmt.Sprintf("img%d", i)
		var err error
		imgs[i], err = installImage(fs, "/images/"+name, vm.Spec{
			Name:        name,
			MemoryBytes: uint64(320 << 20 / e.sz.cloneScale),
			DiskBytes:   uint64(16 << 27 / e.sz.cloneScale),
			Seed:        e.seed*int64(images) + int64(i),
		})
		if err != nil {
			return nil, err
		}
	}
	d, err := deploy(e, fs, 1)
	if err != nil {
		return nil, err
	}
	defer d.close()
	r.setup = time.Since(t0)
	if e.setupOnly {
		r.setupOnly = true
		return r, nil
	}

	var vms []*instance
	defer func() {
		for _, in := range vms {
			in.close()
		}
	}()
	for i := 0; i < images*times; i++ {
		t := time.Now()
		in, err := d.instantiate(r, 0, imgs[i%images], fmt.Sprintf("/clones/vm%d", i), 0, &r.iter)
		if in != nil {
			vms = append(vms, in)
		}
		if err != nil {
			return r, err
		}
		dur := time.Since(t)
		r.iterWall += dur
		if i == 0 {
			r.firsts = append(r.firsts, dur)
		} else {
			r.warms = append(r.warms, dur)
		}
	}
	models := make([]*model, 0, len(imgs))
	for _, img := range imgs {
		models = append(models, img.disk)
	}
	return r, d.finish(r, models, vms)
}

// loopbackMix runs two sessions against a warm proxy with no WAN: each
// clones and boots its own VM from one golden image, reads its half of
// the disk once to warm the proxy's block cache (part of set-up), then
// issues a seeded, skewed 70/30 READ/WRITE mix of 8 KiB blocks in
// mixBatches iterations, closed loop.
func loopbackMix(e *env) (*round, error) {
	const bs = gvfs.DefaultBlockSize
	const sessions = 2
	r := &round{}
	t0 := time.Now()
	fs := memfs.New()
	img, err := installImage(fs, "/images/rh73", vm.Spec{
		Name:        "rh73",
		MemoryBytes: uint64(512 << 20 / e.sz.scale),
		DiskBytes:   uint64(sessions * e.sz.mixBlocks * bs),
		Seed:        e.seed,
	})
	if err != nil {
		return nil, err
	}
	d, err := deploy(e, fs, sessions)
	if err != nil {
		return nil, err
	}
	defer d.close()
	setup := time.Since(t0)

	vms := make([]*instance, sessions)
	defer func() {
		for _, in := range vms {
			if in != nil {
				in.close()
			}
		}
	}()
	for s := range vms {
		vms[s], err = d.instantiate(r, s, img, fmt.Sprintf("/clones/vm%d", s), 0, &r.other)
		if err != nil {
			return r, err
		}
	}

	// Warm-up: each session reads its half once, in parallel.
	t1 := time.Now()
	recs := make([]recorder, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for s := range vms {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			disk := &vdisk{f: vms[s].vm.Disk, m: img.disk, rec: &recs[s]}
			buf := make([]byte, bs)
			base := int64(s * e.sz.mixBlocks * bs)
			for b := 0; b < e.sz.mixBlocks; b++ {
				if _, errs[s] = disk.ReadAt(buf, base+int64(b)*bs); errs[s] != nil {
					return
				}
			}
		}(s)
	}
	wg.Wait()
	r.setup = setup + time.Since(t1)
	for s := range recs {
		r.other.merge(&recs[s])
		if errs[s] != nil {
			return r, errs[s]
		}
	}
	if e.setupOnly {
		r.setupOnly = true
		return r, nil
	}

	// The mix.
	iters := make([][]time.Duration, sessions)
	recs = make([]recorder, sessions)
	t2 := time.Now()
	for s := range vms {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(e.seed*sessions + int64(s) + 1<<32))
			disk := &vdisk{f: vms[s].vm.Disk, m: img.disk, rec: &recs[s]}
			iters[s], errs[s] = mixSession(disk, rng, e.sz, int64(s*e.sz.mixBlocks*bs))
		}(s)
	}
	wg.Wait()
	r.iterWall = time.Since(t2)
	for s := range recs {
		r.iter.merge(&recs[s])
		if errs[s] != nil {
			return r, errs[s]
		}
		r.firsts = append(r.firsts, iters[s][0])
		r.warms = append(r.warms, iters[s][1:]...)
	}
	return r, d.finish(r, []*model{img.disk}, vms)
}

// mixSession issues one session's mix over the working set at base and
// returns each iteration's duration. Blocks are drawn from the Zipf
// distribution of the cache-analytics experiment's skewed trace
// (internal/bench/mrc.go: s = 1.2, v = 8 over 4096 blocks).
func mixSession(disk *vdisk, rng *rand.Rand, sz sizes, base int64) ([]time.Duration, error) {
	const bs = gvfs.DefaultBlockSize
	// Write contents are windows of a seeded pool, so each write is
	// distinct without paying for fresh random bytes per op.
	pool := make([]byte, 64<<10)
	rng.Read(pool)
	buf := make([]byte, bs)
	zipf := rand.NewZipf(rng, 1.2, 8, uint64(sz.mixBlocks-1))
	durs := make([]time.Duration, 0, sz.mixBatches)
	for it := 0; it < sz.mixBatches; it++ {
		t := time.Now()
		for op := 0; op < sz.mixBatchOps; op++ {
			off := base + int64(zipf.Uint64())*bs
			if rng.Intn(10) < 3 {
				w := rng.Intn(len(pool) - bs)
				if _, err := disk.WriteAt(pool[w:w+bs], off); err != nil {
					return durs, err
				}
			} else if _, err := disk.ReadAt(buf, off); err != nil {
				return durs, err
			}
		}
		durs = append(durs, time.Since(t))
	}
	return durs, nil
}

package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
	"time"

	gvfs "gvfs"
	"gvfs/internal/clone"
	"gvfs/internal/memfs"
	"gvfs/internal/vm"
)

// recorder collects one client's per-call latencies and outcomes.
// Each goroutine owns its recorders; merge them after it finishes.
type recorder struct {
	reads, writes       []time.Duration
	readTime, writeTime time.Duration
	attempted, failed   int
	firstErr            error
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *recorder) merge(o *recorder) {
	r.reads = append(r.reads, o.reads...)
	r.writes = append(r.writes, o.writes...)
	r.readTime += o.readTime
	r.writeTime += o.writeTime
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

func (r *recorder) ops() int { return len(r.reads) + len(r.writes) }

// model is the expected content of one file on the image server: its
// installed bytes with every acknowledged write applied. Clients that
// share a file write disjoint ranges of it.
type model struct {
	path string
	data []byte
}

func (m *model) apply(p []byte, off int64) {
	if end := int(off) + len(p); end > len(m.data) {
		m.data = append(m.data, make([]byte, end-len(m.data))...)
	}
	copy(m.data[off:], p)
}

// check compares the image server's copy of the file with the model
// block by block: each block compared is one attempted op, and each
// block that differs one failed op.
func (m *model) check(fs *memfs.FS, rec *recorder, bs int) {
	got, err := fs.ReadFile(m.path)
	if err != nil {
		rec.attempted++
		rec.fail(fmt.Errorf("verify %s: %w", m.path, err))
		return
	}
	if len(got) != len(m.data) {
		rec.attempted++
		rec.fail(fmt.Errorf("verify %s: server has %d bytes, acknowledged writes give %d", m.path, len(got), len(m.data)))
		return
	}
	for off := 0; off < len(got); off += bs {
		end := min(off+bs, len(got))
		rec.attempted++
		if !bytes.Equal(got[off:end], m.data[off:end]) {
			rec.fail(fmt.Errorf("verify %s: block at %d differs from the acknowledged writes", m.path, off))
		}
	}
}

// vdisk is a file opened through a session: every call is timed into
// rec, every read is checked against the model and every acknowledged
// write updates it. A wrong byte counts as a failed op; an I/O error
// also aborts the caller.
type vdisk struct {
	f   *gvfs.File
	m   *model
	rec *recorder
}

func (d *vdisk) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := d.f.ReadAt(p, off)
	dt := time.Since(t0)
	d.rec.reads = append(d.rec.reads, dt)
	d.rec.readTime += dt
	d.rec.attempted++
	if err != nil && !errors.Is(err, io.EOF) {
		d.rec.fail(err)
		return n, err
	}
	want := d.m.data[min(int(off), len(d.m.data)):min(int(off)+n, len(d.m.data))]
	if !bytes.Equal(p[:n], want) {
		d.rec.fail(fmt.Errorf("read %s@%d: %d bytes differ from the image server's", d.m.path, off, n))
	}
	return n, err
}

func (d *vdisk) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := d.f.WriteAt(p, off)
	dt := time.Since(t0)
	d.rec.writes = append(d.rec.writes, dt)
	d.rec.writeTime += dt
	d.rec.attempted++
	if err != nil {
		d.rec.fail(err)
		return n, err
	}
	d.m.apply(p[:n], off)
	return n, nil
}

// image is one golden VM image installed on the image server.
type image struct {
	spec vm.Spec
	dir  string
	disk *model // the golden .vmdk
	mem  []byte // the .vmss as installed
}

func installImage(fs *memfs.FS, dir string, spec vm.Spec) (*image, error) {
	if err := vm.InstallImage(fs, dir, spec); err != nil {
		return nil, err
	}
	img := &image{spec: spec, dir: dir, disk: &model{path: path.Join(dir, spec.DiskFile())}}
	var err error
	if img.disk.data, err = fs.ReadFile(img.disk.path); err != nil {
		return nil, err
	}
	if img.mem, err = fs.ReadFile(path.Join(dir, spec.MemStateFile())); err != nil {
		return nil, err
	}
	return img, nil
}

// instance is a cloned VM.
type instance struct {
	img  *image
	sess *gvfs.Session
	vm   *vm.VM
	cfg  string // the clone's .vmx path
}

// cloneVM runs the paper's cloning workflow for img into cloneDir over
// sess.
func cloneVM(sess *gvfs.Session, img *image, cloneDir string, rec *recorder) (*instance, time.Duration, error) {
	t0 := time.Now()
	res, err := clone.Clone(sess, clone.Options{
		GoldenDir: img.dir, CloneDir: cloneDir, Name: img.spec.Name, User: "grid", KeepVM: true,
	})
	dur := time.Since(t0)
	rec.attempted++
	if err != nil {
		rec.fail(err)
		return nil, dur, err
	}
	return &instance{img: img, sess: sess, vm: res.VM, cfg: path.Join(cloneDir, img.spec.ConfigFile())}, dur, nil
}

// boot reads the VM's disk working set in order, one 8 KiB block at a
// time, from lo to the end of the disk's first tenth. The working set
// is the "<10% of disk" of DESIGN.md §5, read the way the working-set
// scans of internal/bench/ablations.go read it; lo is the end of the
// application files a workload reads itself. A boot writes nothing.
func (in *instance) boot(lo int64, rec *recorder) (time.Duration, error) {
	const bs = gvfs.DefaultBlockSize
	t0 := time.Now()
	end := int64(in.img.spec.DiskBytes) / 10 / bs * bs
	if lo >= end {
		return 0, fmt.Errorf("boot: application files end at %d, past the working set's end %d", lo, end)
	}
	disk := &vdisk{f: in.vm.Disk, m: in.img.disk, rec: rec}
	buf := make([]byte, bs)
	for off := lo; off < end; off += bs {
		if _, err := disk.ReadAt(buf, off); err != nil {
			return time.Since(t0), err
		}
	}
	return time.Since(t0), nil
}

// verify checks the clone's customised config on the image server and
// re-reads, through the VM's session, the memory state it resumed
// from. The re-read crosses the image server's link, so verify runs
// after the round's link and layer counters are read.
func (in *instance) verify(fs *memfs.FS, rec *recorder) {
	cfg, err := fs.ReadFile(in.cfg)
	rec.attempted++
	if err != nil || !strings.Contains(string(cfg), `guestinfo.gridUser = "grid"`) {
		rec.fail(fmt.Errorf("verify %s: clone config missing on the image server (err %v)", in.cfg, err))
	}
	mem, err := in.sess.ReadFile(path.Join(in.img.dir, in.img.spec.MemStateFile()))
	rec.attempted++
	if err != nil || !bytes.Equal(mem, in.img.mem) {
		rec.fail(fmt.Errorf("verify %s: memory state differs from the image server's (err %v)", in.img.dir, err))
	}
}

func (in *instance) close() { in.vm.Close() }

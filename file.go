package gvfs

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"gvfs/internal/nfs3"
)

// File is an open file within a Session. Reads and writes flow through
// the session's buffer cache in block-aligned NFS transfers, mimicking
// a kernel NFS client's page-sized I/O. File implements io.Reader,
// io.Writer, io.ReaderAt, io.WriterAt, io.Seeker and io.Closer.
type File struct {
	s    *Session
	fh   nfs3.FH
	path string

	mu     sync.Mutex
	pos    int64
	size   uint64
	dirty  bool // written since the last successful Sync
	closed bool
}

// Handle returns the file's NFS handle.
func (f *File) Handle() nfs3.FH { return f.fh }

// Path returns the session path the file was opened with.
func (f *File) Path() string { return f.path }

// Size returns the file size as known to this handle.
func (f *File) Size() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// Close releases the handle, committing written data first so the
// caller learns about propagation failures instead of losing them.
// Close is idempotent: the commit happens once, and a second Close
// returns nil. Durability beyond the first hop is governed by the
// session's consistency model (see the proxy Flush/WriteBack controls).
func (f *File) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	dirty := f.dirty
	f.dirty = false
	f.mu.Unlock()
	f.s.untrackFile(f)
	if dirty {
		return f.s.nfs.Commit(f.fh, 0, 0)
	}
	return nil
}

func (f *File) checkOpen() error {
	if f.closed {
		return errors.New("gvfs: file is closed")
	}
	return nil
}

// ReadAt implements io.ReaderAt with block-aligned NFS reads through
// the buffer cache.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	if err := f.checkOpen(); err != nil {
		f.mu.Unlock()
		return 0, err
	}
	f.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("gvfs: negative offset %d", off)
	}
	bs := int64(f.s.bs)
	total := 0
	for total < len(p) {
		cur := off + int64(total)
		blockStart := cur - cur%bs
		block := uint64(blockStart) / uint64(bs)

		// Only pay for time.Now() when session metrics are enabled.
		var blockStartTime time.Time
		if f.s.readDur != nil {
			blockStartTime = time.Now()
		}
		data, hit := f.s.pages.Get(f.fh, block)
		eof := false
		if !hit {
			var err error
			data, eof, err = f.s.nfs.Read(f.fh, uint64(blockStart), uint32(bs))
			if err != nil {
				return total, err
			}
			if len(data) > 0 {
				f.s.pages.Put(f.fh, block, data)
			}
			f.s.observeRead("miss", blockStartTime)
		} else {
			f.s.observeRead("hit", blockStartTime)
			// A page cached while it was the (short) tail of the file
			// goes stale when later writes extend the file past it:
			// the missing bytes are zero-fill holes. Extend the view
			// up to the known file size before concluding EOF.
			f.mu.Lock()
			size := int64(f.size)
			f.mu.Unlock()
			if want := size - blockStart; want > int64(len(data)) {
				if want > bs {
					want = bs
				}
				grown := make([]byte, want)
				copy(grown, data)
				data = grown
				f.s.pages.Put(f.fh, block, data)
			}
			eof = len(data) < int(bs)
		}
		inBlock := int(cur - blockStart)
		if inBlock >= len(data) {
			if total == 0 {
				return 0, io.EOF
			}
			return total, io.EOF
		}
		n := copy(p[total:], data[inBlock:])
		total += n
		if eof && inBlock+n >= len(data) {
			if total < len(p) {
				return total, io.EOF
			}
			return total, nil
		}
	}
	return total, nil
}

// ReadAll reads the entire file from offset 0.
func (f *File) ReadAll() ([]byte, error) {
	size := f.Size()
	buf := make([]byte, size)
	n, err := f.ReadAt(buf, 0)
	if err == io.EOF {
		err = nil
	}
	return buf[:n], err
}

// WriteAt implements io.WriterAt. Writes are issued to the NFS server
// block by block (the proxy absorbs them under write-back), and the
// buffer cache is updated so subsequent reads hit in memory.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	if err := f.checkOpen(); err != nil {
		f.mu.Unlock()
		return 0, err
	}
	f.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("gvfs: negative offset %d", off)
	}
	bs := int64(f.s.bs)
	total := 0
	for total < len(p) {
		cur := off + int64(total)
		blockStart := cur - cur%bs
		inBlock := cur - blockStart
		n := int(bs - inBlock)
		if n > len(p)-total {
			n = len(p) - total
		}
		chunk := p[total : total+n]
		if _, _, err := f.s.nfs.Write(f.fh, uint64(cur), chunk, nfs3.Unstable); err != nil {
			return total, err
		}
		f.updatePageAfterWrite(blockStart, inBlock, chunk)
		total += n
	}
	f.mu.Lock()
	if end := uint64(off) + uint64(total); end > f.size {
		f.size = end
	}
	f.dirty = true
	f.mu.Unlock()
	return total, nil
}

// updatePageAfterWrite keeps the buffer cache coherent with a write.
// If the page is resident it is patched in place. A non-resident page
// is only installed when the chunk starts the block and is its whole
// content: it fills the block, or it reaches the file's known end so
// nothing follows it. Any other partial write to an absent page would
// need a read-modify-write round trip, so the page stays absent.
func (f *File) updatePageAfterWrite(blockStart, inBlock int64, chunk []byte) {
	block := uint64(blockStart) / uint64(f.s.bs)
	if data, ok := f.s.pages.Get(f.fh, block); ok {
		end := inBlock + int64(len(chunk))
		if int64(len(data)) < end {
			grown := make([]byte, end)
			copy(grown, data)
			data = grown
		}
		copy(data[inBlock:], chunk)
		f.s.pages.Put(f.fh, block, data)
		return
	}
	if inBlock != 0 {
		return
	}
	f.mu.Lock()
	size := f.size
	f.mu.Unlock()
	if len(chunk) == int(f.s.bs) || uint64(blockStart)+uint64(len(chunk)) >= size {
		f.s.pages.Put(f.fh, block, chunk)
	}
}

// Read implements io.Reader at the current position.
func (f *File) Read(p []byte) (int, error) {
	f.mu.Lock()
	pos := f.pos
	f.mu.Unlock()
	n, err := f.ReadAt(p, pos)
	f.mu.Lock()
	f.pos += int64(n)
	f.mu.Unlock()
	return n, err
}

// Write implements io.Writer at the current position.
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	pos := f.pos
	f.mu.Unlock()
	n, err := f.WriteAt(p, pos)
	f.mu.Lock()
	f.pos += int64(n)
	f.mu.Unlock()
	return n, err
}

// Seek implements io.Seeker.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var next int64
	switch whence {
	case io.SeekStart:
		next = offset
	case io.SeekCurrent:
		next = f.pos + offset
	case io.SeekEnd:
		next = int64(f.size) + offset
	default:
		return 0, fmt.Errorf("gvfs: bad whence %d", whence)
	}
	if next < 0 {
		return 0, errors.New("gvfs: negative seek position")
	}
	f.pos = next
	return next, nil
}

// Truncate resizes the file.
func (f *File) Truncate(size uint64) error {
	if _, err := f.s.nfs.SetAttr(f.fh, nfs3.SetAttr{Size: &size}); err != nil {
		return err
	}
	f.s.pages.InvalidateFile(f.fh)
	f.mu.Lock()
	f.size = size
	if f.pos > int64(size) {
		f.pos = int64(size)
	}
	f.mu.Unlock()
	return nil
}

// Sync issues an NFS COMMIT for the file. Under the proxy's write-back
// policy this returns quickly: the session consistency model defers
// real propagation to the middleware's WriteBack/Flush.
func (f *File) Sync() error {
	if err := f.s.nfs.Commit(f.fh, 0, 0); err != nil {
		return err
	}
	f.mu.Lock()
	f.dirty = false
	f.mu.Unlock()
	return nil
}

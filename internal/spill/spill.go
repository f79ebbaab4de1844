// Package spill implements the disk layer of the join engine's degradation
// ladder: checksummed, page-framed run files that radix partitions are
// evicted into when a query's working set exceeds its memory budget, and
// read back from one partition at a time during the join phase.
//
// A Dir owns one query's spill files as a private temp directory; Cleanup
// is idempotent and is deferred by the executor so the directory is removed
// on query end, cancellation, and panic alike. A File is an append-only
// sequence of frames, each a length-prefixed, CRC32-checksummed payload of
// whole packed rows. Corruption (bit rot, short writes, truncation) is
// detected on read and surfaced as an error naming the file and frame —
// a damaged spill file can fail a query but can never produce a wrong
// answer.
//
// Fault-injection sites cover the three disk failure modes: WriteSite fails
// an append, ReadSite simulates a short read, and CorruptSite flips a bit
// in a frame as it is written so the reader's checksum verification trips.
package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"partitionjoin/internal/faultinject"
)

// Fault-injection sites of the spill layer.
const (
	// WriteSite fails File.Append with the injected error.
	WriteSite = "spill.write"
	// ReadSite makes Reader.Next report an injected short read.
	ReadSite = "spill.read"
	// CorruptSite flips one bit of a frame payload as it is written, so
	// the next read of that frame fails checksum verification.
	CorruptSite = "spill.corrupt"
)

var _ = faultinject.Register(WriteSite, ReadSite, CorruptSite)

// frameHeaderSize is the per-frame overhead: payload length u32, CRC32 u32.
const frameHeaderSize = 8

// Dir owns the spill files of one query inside a private temp directory.
type Dir struct {
	path string

	mu      sync.Mutex
	files   map[string]*File
	removed bool
}

// dirPrefix names every spill directory so the janitor can recognize them.
const dirPrefix = "spill-"

// ownerFile is the liveness marker inside each spill directory: the pid of
// the owning process. The janitor (Sweep) only removes directories whose
// owner is gone, so a crashed process's leftovers are reclaimed without
// ever touching a live query's files.
const ownerFile = "owner.pid"

// NewDir creates a fresh spill directory under parent ("" uses the system
// temp directory).
func NewDir(parent string) (*Dir, error) {
	if parent != "" {
		if err := os.MkdirAll(parent, 0o755); err != nil {
			return nil, fmt.Errorf("spill: create parent %s: %w", parent, err)
		}
	}
	path, err := os.MkdirTemp(parent, dirPrefix)
	if err != nil {
		return nil, fmt.Errorf("spill: create spill dir: %w", err)
	}
	pid := []byte(strconv.Itoa(os.Getpid()))
	if err := os.WriteFile(filepath.Join(path, ownerFile), pid, 0o600); err != nil {
		os.RemoveAll(path)
		return nil, fmt.Errorf("spill: write owner marker: %w", err)
	}
	return &Dir{path: path, files: make(map[string]*File)}, nil
}

// sessPrefix names per-session spill parents (SessionParent) so the janitor
// can recognize and recurse into them.
const sessPrefix = "sess-"

// CSTmpPrefix names the column store's background-write temp directories
// (internal/colstore writes a table into one, then renames it into place).
// A crash mid-write strands the directory; Sweep reaps it under the same
// owner.pid liveness rule as spill directories.
const CSTmpPrefix = "cstmp-"

// NewOwnedTempDir creates a fresh prefix-named temp directory under parent
// carrying this process's owner.pid liveness marker, so Sweep can reap it
// if the process dies before the caller renames or removes it. The colstore
// background writer stages table directories through it.
func NewOwnedTempDir(parent, prefix string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", fmt.Errorf("spill: create parent %s: %w", parent, err)
	}
	path, err := os.MkdirTemp(parent, prefix)
	if err != nil {
		return "", fmt.Errorf("spill: create temp dir: %w", err)
	}
	pid := []byte(strconv.Itoa(os.Getpid()))
	if err := os.WriteFile(filepath.Join(path, ownerFile), pid, 0o600); err != nil {
		os.RemoveAll(path)
		return "", fmt.Errorf("spill: write owner marker: %w", err)
	}
	return path, nil
}

// ReleaseOwnedTempDir removes the owner.pid marker from a NewOwnedTempDir
// directory, declaring the contents complete: the caller is about to rename
// the directory into its final place and the janitor must no longer
// consider it reapable.
func ReleaseOwnedTempDir(dir string) error {
	return os.Remove(filepath.Join(dir, ownerFile))
}

// SessionParent creates (or reuses) a per-session spill parent under parent:
// a directory named sess-<id> carrying this process's owner marker. Queries
// of the session use it as their Options.SpillDir, so each query's private
// spill-* directory nests inside it; removing the session parent reclaims
// every byte the session ever spilled in one call. Because it carries an
// owner marker, Sweep reclaims the whole session tree when the owning
// process crashes.
func SessionParent(parent, id string) (string, error) {
	if strings.ContainsAny(id, "/\\") || id == "" {
		return "", fmt.Errorf("spill: invalid session id %q", id)
	}
	dir := filepath.Join(parent, sessPrefix+id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spill: create session dir %s: %w", dir, err)
	}
	pid := []byte(strconv.Itoa(os.Getpid()))
	if err := os.WriteFile(filepath.Join(dir, ownerFile), pid, 0o600); err != nil {
		os.RemoveAll(dir)
		return "", fmt.Errorf("spill: write owner marker: %w", err)
	}
	return dir, nil
}

// RemoveSessionParent deletes a session's spill parent and everything the
// session spilled beneath it. A missing directory is not an error.
func RemoveSessionParent(dir string) error {
	base := filepath.Base(dir)
	if !strings.HasPrefix(base, sessPrefix) {
		return fmt.Errorf("spill: %s is not a session spill dir", dir)
	}
	return os.RemoveAll(dir)
}

// Sweep is the stale-spill janitor: it scans parent for spill directories
// and colstore write-temp directories (CSTmpPrefix) whose owning process no
// longer exists — leftovers of a crash, which the normal deferred Cleanup
// can never reach — and removes them. Per-session
// parents (SessionParent) are reclaimed whole when their owner is dead and
// swept recursively when alive, so a live daemon's periodic re-sweep also
// reclaims query dirs orphaned inside its own sessions by an earlier
// incarnation. Directories owned by live processes (including this one)
// are untouched. It returns the paths removed; a missing parent is not an
// error (nothing to clean).
func Sweep(parent string) ([]string, error) {
	ents, err := os.ReadDir(parent)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("spill: sweep %s: %w", parent, err)
	}
	var removed []string
	var firstErr error
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		dir := filepath.Join(parent, ent.Name())
		switch {
		case strings.HasPrefix(ent.Name(), sessPrefix):
			if ownerAlive(dir) {
				// Live session: its query subdirectories may still be
				// stale (a previous daemon's pid can recycle), so recurse.
				sub, err := Sweep(dir)
				removed = append(removed, sub...)
				if err != nil && firstErr == nil {
					firstErr = err
				}
				continue
			}
		case strings.HasPrefix(ent.Name(), dirPrefix),
			strings.HasPrefix(ent.Name(), CSTmpPrefix):
			if ownerAlive(dir) {
				continue
			}
		default:
			continue
		}
		if err := os.RemoveAll(dir); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("spill: sweep %s: %w", dir, err)
			}
			continue
		}
		removed = append(removed, dir)
	}
	return removed, firstErr
}

// ownerAlive reports whether the directory's owner marker names a live
// process. A missing or malformed marker means the owner crashed before
// (or while) writing it, i.e. the directory is stale.
func ownerAlive(dir string) bool {
	b, err := os.ReadFile(filepath.Join(dir, ownerFile))
	if err != nil {
		return false
	}
	pid, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil || pid <= 0 {
		return false
	}
	if pid == os.Getpid() {
		return true
	}
	p, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	// Signal 0 probes existence without delivering anything; EPERM means
	// the process exists but belongs to someone else — still alive.
	err = p.Signal(syscall.Signal(0))
	return err == nil || errors.Is(err, syscall.EPERM)
}

// Path returns the directory's filesystem path.
func (d *Dir) Path() string { return d.path }

// File returns the named run file, creating it on first use. Names must be
// bare file names (no separators).
func (d *Dir) File(name string) (*File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.removed {
		return nil, fmt.Errorf("spill: dir %s already cleaned up", d.path)
	}
	if f, ok := d.files[name]; ok {
		return f, nil
	}
	path := d.path + string(os.PathSeparator) + name
	osf, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, fmt.Errorf("spill: create %s: %w", name, err)
	}
	f := &File{dir: d, name: name, f: osf}
	d.files[name] = f
	return f, nil
}

// NumFiles returns the number of live run files.
func (d *Dir) NumFiles() int {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.files)
}

// Cleanup closes every file and removes the directory tree. It is
// idempotent and safe to defer alongside error and panic paths; a nil *Dir
// cleans up nothing.
func (d *Dir) Cleanup() error {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.removed {
		return nil
	}
	d.removed = true
	for _, f := range d.files {
		f.closeFile()
	}
	d.files = nil
	if err := os.RemoveAll(d.path); err != nil {
		return fmt.Errorf("spill: remove %s: %w", d.path, err)
	}
	return nil
}

// File is one append-only run of checksummed frames. Appends are serialized
// by an internal mutex; reads (via Reader) use ReadAt and may run
// concurrently once writing is finished.
type File struct {
	dir  *Dir
	name string

	mu       sync.Mutex
	f        *os.File
	woff     int64 // bytes written (headers + payloads)
	frames   int
	bytes    int64 // payload bytes
	rows     int64
	maxFrame int
	hdr      [frameHeaderSize]byte // Append's header scratch, under mu
}

// Name returns the file's name within its Dir.
func (f *File) Name() string { return f.name }

// Frames returns the number of appended frames.
func (f *File) Frames() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.frames
}

// Bytes returns the total payload bytes appended.
func (f *File) Bytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bytes
}

// Rows returns the total rows appended.
func (f *File) Rows() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rows
}

// MaxFrame returns the largest payload appended, the buffer size a reader
// needs.
func (f *File) MaxFrame() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.maxFrame
}

// Append writes one frame holding rows whole packed rows. The payload is
// checksummed so any later damage is detected at read time.
func (f *File) Append(payload []byte, rows int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.f == nil {
		return fmt.Errorf("spill: %s: append after close", f.name)
	}
	if err := faultinject.ErrAt(WriteSite); err != nil {
		return fmt.Errorf("spill: write %s frame %d: %w", f.name, f.frames, err)
	}
	hdr := f.hdr[:]
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if err := faultinject.ErrAt(CorruptSite); err != nil && len(payload) > 0 {
		// Injected bit rot: write a damaged copy under the clean payload's
		// checksum; the caller's buffer stays intact.
		bad := append([]byte(nil), payload...)
		bad[len(bad)/2] ^= 0x40
		payload = bad
	}
	if _, err := f.f.Write(hdr); err != nil {
		return fmt.Errorf("spill: write %s frame %d: %w", f.name, f.frames, err)
	}
	if _, err := f.f.Write(payload); err != nil {
		return fmt.Errorf("spill: write %s frame %d: %w", f.name, f.frames, err)
	}
	f.woff += frameHeaderSize + int64(len(payload))
	f.frames++
	f.bytes += int64(len(payload))
	f.rows += int64(rows)
	if len(payload) > f.maxFrame {
		f.maxFrame = len(payload)
	}
	return nil
}

// Remove closes and deletes the file, detaching it from its Dir (used when
// a recursive re-partition has fully drained a parent run).
func (f *File) Remove() error {
	f.dir.mu.Lock()
	delete(f.dir.files, f.name)
	path := f.dir.path + string(os.PathSeparator) + f.name
	f.dir.mu.Unlock()
	f.mu.Lock()
	f.closeFileLocked()
	f.mu.Unlock()
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("spill: remove %s: %w", f.name, err)
	}
	return nil
}

func (f *File) closeFile() {
	f.mu.Lock()
	f.closeFileLocked()
	f.mu.Unlock()
}

func (f *File) closeFileLocked() {
	if f.f != nil {
		f.f.Close()
		f.f = nil
	}
}

// Reader iterates a file's frames in append order, verifying each frame's
// length and checksum. Readers are independent; each keeps its own cursor.
type Reader struct {
	f     *File
	off   int64
	frame int
	hdr   [frameHeaderSize]byte
}

// NewReader returns a reader positioned at the first frame.
func (f *File) NewReader() *Reader { return &Reader{f: f} }

// AppendNext reads the payload of the next frame into the free capacity of
// dst and returns dst extended by it. dst grows only when it lacks the room,
// so a caller that sizes it by MaxFrame (or by Bytes, to gather a whole run)
// reads every frame in place; AppendNext(nil) returns a fresh buffer of
// exactly the frame. The checksum is verified on the bytes where they land.
// It returns io.EOF after the last frame; a truncated or corrupted frame is
// an error naming the file and frame index.
func (r *Reader) AppendNext(dst []byte) ([]byte, error) {
	f := r.f
	f.mu.Lock()
	osf, end := f.f, f.woff
	f.mu.Unlock()
	if r.off == end {
		return dst, io.EOF
	}
	if osf == nil {
		return dst, fmt.Errorf("spill: read %s frame %d: file closed", f.name, r.frame)
	}
	if err := faultinject.ErrAt(ReadSite); err != nil {
		return dst, fmt.Errorf("spill: read %s frame %d: short read: %w", f.name, r.frame, err)
	}
	hdr := r.hdr[:]
	if r.off+frameHeaderSize > end {
		return dst, fmt.Errorf("spill: read %s frame %d: truncated header (%d bytes past offset %d)",
			f.name, r.frame, end-r.off, r.off)
	}
	if _, err := osf.ReadAt(hdr, r.off); err != nil {
		return dst, r.readErr(err)
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:]))
	want := binary.LittleEndian.Uint32(hdr[4:])
	if r.off+frameHeaderSize+int64(n) > end {
		return dst, fmt.Errorf("spill: read %s frame %d: truncated payload (%d of %d bytes)",
			f.name, r.frame, end-r.off-frameHeaderSize, n)
	}
	dst = slices.Grow(dst, n)
	buf := dst[len(dst) : len(dst)+n]
	if _, err := osf.ReadAt(buf, r.off+frameHeaderSize); err != nil {
		return dst, r.readErr(err)
	}
	if got := crc32.ChecksumIEEE(buf); got != want {
		return dst, fmt.Errorf("spill: read %s frame %d: checksum mismatch (stored %08x, computed %08x)",
			f.name, r.frame, want, got)
	}
	r.off += frameHeaderSize + int64(n)
	r.frame++
	return dst[:len(dst)+n], nil
}

// readErr names the file and frame of a failed read. Running into the end
// of the file inside a frame that was appended means the file was cut short
// on disk; that error does not wrap io.EOF, so no caller can take it for the
// clean end of the run.
func (r *Reader) readErr(err error) error {
	if errors.Is(err, io.EOF) {
		return fmt.Errorf("spill: read %s frame %d: file cut short on disk", r.f.name, r.frame)
	}
	return fmt.Errorf("spill: read %s frame %d: %w", r.f.name, r.frame, err)
}

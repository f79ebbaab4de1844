package spill

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"partitionjoin/internal/faultinject"
)

func newTestDir(t *testing.T) *Dir {
	t.Helper()
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Cleanup() })
	return d
}

func TestRoundTrip(t *testing.T) {
	d := newTestDir(t)
	f, err := d.File("run.build")
	if err != nil {
		t.Fatal(err)
	}
	frames := [][]byte{
		[]byte("hello spill"),
		make([]byte, 4096),
		[]byte{0xde, 0xad, 0xbe, 0xef},
	}
	for i := range frames[1] {
		frames[1][i] = byte(i * 7)
	}
	var rows int64
	for i, p := range frames {
		if err := f.Append(p, i+1); err != nil {
			t.Fatal(err)
		}
		rows += int64(i + 1)
	}
	if f.Frames() != len(frames) || f.Rows() != rows {
		t.Fatalf("frames=%d rows=%d, want %d and %d", f.Frames(), f.Rows(), len(frames), rows)
	}
	if f.MaxFrame() != 4096 {
		t.Fatalf("max frame = %d, want 4096", f.MaxFrame())
	}
	rd := f.NewReader()
	for i, want := range frames {
		got, err := rd.AppendNext(nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if string(got) != string(want) {
			t.Fatalf("frame %d payload mismatch", i)
		}
	}
	if _, err := rd.AppendNext(nil); !errors.Is(err, io.EOF) {
		t.Fatalf("past last frame: err = %v, want io.EOF", err)
	}
}

func TestIndependentReaders(t *testing.T) {
	d := newTestDir(t)
	f, _ := d.File("run")
	for i := 0; i < 4; i++ {
		if err := f.Append([]byte{byte(i)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	next := func(r *Reader) byte {
		p, err := r.AppendNext(nil)
		if err != nil {
			t.Fatal(err)
		}
		return p[0]
	}
	a, b := f.NewReader(), f.NewReader()
	pa, pa2 := next(a), next(a)
	pb := next(b)
	if pa != 0 || pa2 != 1 || pb != 0 {
		t.Fatalf("readers share a cursor: a=%d,%d b=%d", pa, pa2, pb)
	}
}

// AppendNext reads into the caller's buffer when it has the room: a run
// gathered into a buffer of Bytes, or each frame into one buffer of
// MaxFrame, lands in that buffer and allocates nothing; a damaged frame read
// in place is still an error naming the file and the frame.
func TestAppendNextReadsInPlace(t *testing.T) {
	d := newTestDir(t)
	f, _ := d.File("inplace")
	frames := []string{"alpha", "a longer second frame", "gamma"}
	for _, p := range frames {
		if err := f.Append([]byte(p), 1); err != nil {
			t.Fatal(err)
		}
	}
	whole := make([]byte, 0, f.Bytes())
	rd := f.NewReader()
	for {
		var err error
		if whole, err = rd.AppendNext(whole); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if got, want := string(whole), strings.Join(frames, ""); got != want || cap(whole) != len(want) {
		t.Fatalf("gathered %q (cap %d), want %q in a buffer of exactly its size", got, cap(whole), want)
	}
	frame := make([]byte, 0, f.MaxFrame())
	allocs := testing.AllocsPerRun(1, func() {
		*rd = Reader{f: f} // back to the first frame
		for i := range frames {
			got, err := rd.AppendNext(frame[:0])
			if err != nil || string(got) != frames[i] || &got[0] != &frame[:1][0] {
				t.Fatalf("frame %d: %q, %v (in place: %v)", i, got, err, err == nil && &got[0] == &frame[:1][0])
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("reading into a MaxFrame buffer allocated %v times", allocs)
	}

	raw, err := os.ReadFile(filepath.Join(d.Path(), "inplace"))
	if err != nil {
		t.Fatal(err)
	}
	raw[frameHeaderSize+len(frames[0])+frameHeaderSize+2] ^= 0x10
	if err := os.WriteFile(filepath.Join(d.Path(), "inplace"), raw, 0o600); err != nil {
		t.Fatal(err)
	}
	rd = f.NewReader()
	got, err := rd.AppendNext(frame[:0])
	if err != nil {
		t.Fatalf("undamaged frame 0: %v", err)
	}
	if _, err = rd.AppendNext(got); err == nil ||
		!strings.Contains(err.Error(), "inplace frame 1: checksum mismatch") {
		t.Fatalf("damaged frame read in place: err = %v, want a checksum error naming file and frame", err)
	}
}

// On-disk damage after a clean write must be detected by the checksum and
// surface as an error naming file and frame — never as silent wrong data.
func TestOnDiskCorruptionDetected(t *testing.T) {
	d := newTestDir(t)
	f, _ := d.File("victim")
	if err := f.Append([]byte("first frame ok"), 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Append([]byte("second frame gets damaged"), 1); err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit of frame 1 directly on disk.
	path := filepath.Join(d.Path(), "victim")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := frameHeaderSize + len("first frame ok") + frameHeaderSize + 3
	raw[off] ^= 0x01
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	rd := f.NewReader()
	if _, err := rd.AppendNext(nil); err != nil {
		t.Fatalf("undamaged frame 0 failed: %v", err)
	}
	_, err = rd.AppendNext(nil)
	if err == nil {
		t.Fatal("corrupted frame read succeeded")
	}
	if !strings.Contains(err.Error(), "victim") || !strings.Contains(err.Error(), "frame 1") ||
		!strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("error does not name file and frame: %v", err)
	}
}

func TestTruncationDetected(t *testing.T) {
	d := newTestDir(t)
	f, _ := d.File("torn")
	if err := f.Append(make([]byte, 100), 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Append(make([]byte, 100), 1); err != nil {
		t.Fatal(err)
	}
	// Chop the second frame's payload off on disk (a torn write).
	if err := os.Truncate(filepath.Join(d.Path(), "torn"), frameHeaderSize+100+frameHeaderSize+40); err != nil {
		t.Fatal(err)
	}
	rd := f.NewReader()
	if _, err := rd.AppendNext(nil); err != nil {
		t.Fatalf("intact frame: %v", err)
	}
	_, err := rd.AppendNext(nil)
	if err == nil {
		t.Fatal("torn tail read succeeded")
	}
	if !strings.Contains(err.Error(), "torn frame 1") {
		t.Fatalf("error does not name file and frame: %v", err)
	}
	// A caller reading to the end of the run must not take the torn frame
	// for that end.
	if errors.Is(err, io.EOF) {
		t.Fatalf("torn frame error %v reads as the end of the run", err)
	}
}

func TestCleanupRemovesDirAndIsIdempotent(t *testing.T) {
	parent := t.TempDir()
	d, err := NewDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := d.File("a")
	if err := f.Append([]byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	path := d.Path()
	if err := d.Cleanup(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("spill dir %s survived cleanup", path)
	}
	if err := d.Cleanup(); err != nil {
		t.Fatalf("second cleanup: %v", err)
	}
	if _, err := d.File("b"); err == nil {
		t.Fatal("File succeeded after cleanup")
	}
	ents, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("parent dir not empty after cleanup: %v", ents)
	}
	var nd *Dir
	if err := nd.Cleanup(); err != nil {
		t.Fatalf("nil dir cleanup: %v", err)
	}
}

func TestSweepRemovesStaleKeepsLive(t *testing.T) {
	parent := t.TempDir()

	// A live dir owned by this process: must survive the sweep.
	live, err := NewDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Cleanup()

	// A stale dir whose owner pid no longer exists (pids are far below
	// 1<<22 on Linux, and PID_MAX_LIMIT is 4 million).
	stale := filepath.Join(parent, "spill-stale1")
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stale, ownerFile), []byte("8388607"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stale, "run.0"), []byte("leftover"), 0o600); err != nil {
		t.Fatal(err)
	}

	// A crash before the owner marker was written: no marker, also stale.
	unmarked := filepath.Join(parent, "spill-unmarked")
	if err := os.MkdirAll(unmarked, 0o755); err != nil {
		t.Fatal(err)
	}

	// Unrelated entries must be untouched.
	other := filepath.Join(parent, "not-a-spill-dir")
	if err := os.MkdirAll(other, 0o755); err != nil {
		t.Fatal(err)
	}

	removed, err := Sweep(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 {
		t.Fatalf("removed %v, want the two stale dirs", removed)
	}
	for _, dir := range []string{stale, unmarked} {
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("stale dir %s survived the sweep", dir)
		}
	}
	for _, dir := range []string{live.Path(), other} {
		if _, err := os.Stat(dir); err != nil {
			t.Fatalf("sweep removed %s: %v", dir, err)
		}
	}

	// The live dir must still work after the sweep.
	f, err := live.File("post")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append([]byte("ok"), 1); err != nil {
		t.Fatal(err)
	}
}

func TestSweepMissingParentIsNoop(t *testing.T) {
	removed, err := Sweep(filepath.Join(t.TempDir(), "never-created"))
	if err != nil || len(removed) != 0 {
		t.Fatalf("sweep of missing parent: removed=%v err=%v", removed, err)
	}
}

func TestRemoveDetachesFile(t *testing.T) {
	d := newTestDir(t)
	f, _ := d.File("gone")
	if err := f.Append([]byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Remove(); err != nil {
		t.Fatal(err)
	}
	if d.NumFiles() != 0 {
		t.Fatalf("file still tracked after Remove")
	}
	if _, err := os.Stat(filepath.Join(d.Path(), "gone")); !os.IsNotExist(err) {
		t.Fatal("file still on disk after Remove")
	}
	// The name can be reused for a fresh run.
	if _, err := d.File("gone"); err != nil {
		t.Fatalf("recreate after remove: %v", err)
	}
}

func TestInjectedWriteFailure(t *testing.T) {
	faultinject.FailOnLeak(t)
	d := newTestDir(t)
	f, _ := d.File("w")
	faultinject.Arm(t, WriteSite, faultinject.Fault{Kind: faultinject.Fail, Message: "disk full"})
	err := f.Append([]byte("x"), 1)
	if err == nil {
		t.Fatal("append succeeded under injected write failure")
	}
	var inj *faultinject.Injected
	if !errors.As(err, &inj) || inj.Site != WriteSite {
		t.Fatalf("error %v does not carry the injected fault", err)
	}
	if !strings.Contains(err.Error(), "w frame 0") {
		t.Fatalf("error does not name file and frame: %v", err)
	}
}

func TestInjectedShortRead(t *testing.T) {
	faultinject.FailOnLeak(t)
	d := newTestDir(t)
	f, _ := d.File("r")
	if err := f.Append([]byte("payload"), 1); err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(t, ReadSite, faultinject.Fault{Kind: faultinject.Fail, Message: "io error"})
	_, err := f.NewReader().AppendNext(nil)
	if err == nil || !strings.Contains(err.Error(), "short read") {
		t.Fatalf("want short-read error, got %v", err)
	}
	var inj *faultinject.Injected
	if !errors.As(err, &inj) || inj.Site != ReadSite {
		t.Fatalf("error %v does not carry the injected fault", err)
	}
}

func TestInjectedCorruptionCaughtByChecksum(t *testing.T) {
	faultinject.FailOnLeak(t)
	d := newTestDir(t)
	f, _ := d.File("c")
	payload := []byte("this frame is silently damaged on the way to disk")
	keep := append([]byte(nil), payload...)
	faultinject.Arm(t, CorruptSite, faultinject.Fault{Kind: faultinject.Fail, Once: true})
	if err := f.Append(payload, 1); err != nil {
		t.Fatalf("corruption must be silent at write time: %v", err)
	}
	if string(payload) != string(keep) {
		t.Fatal("caller's buffer was modified by the injected corruption")
	}
	_, err := f.NewReader().AppendNext(nil)
	if err == nil {
		t.Fatal("corrupted frame passed checksum verification")
	}
	if !strings.Contains(err.Error(), "checksum mismatch") || !strings.Contains(err.Error(), "frame 0") {
		t.Fatalf("error does not report the checksum failure: %v", err)
	}
	// A frame written after the Once fault expired reads back clean.
	if err := f.Append([]byte("clean"), 1); err != nil {
		t.Fatal(err)
	}
	rd := f.NewReader()
	if _, err := rd.AppendNext(nil); err == nil {
		t.Fatal("frame 0 should still be damaged")
	}
}

package trace

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeTraceDir writes n minimal valid traces with file names in the
// opposite lexicographic order of their task names, so LoadDir's final
// sort by task genuinely reorders the directory listing.
func writeTraceDir(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	for i := 0; i < n; i++ {
		tr := &TaskTrace{
			Task:    fmt.Sprintf("task_%02d", n-1-i),
			StartNS: int64(i), EndNS: int64(i) + 100,
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("f_%02d%s", i, traceSuffix)
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestLoadDirDeterministicAcrossWorkerCounts(t *testing.T) {
	dir := writeTraceDir(t, 20)
	serial, err := loadDirParallel(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 20 {
		t.Fatalf("serial load = %d traces", len(serial))
	}
	for i := 1; i < len(serial); i++ {
		if serial[i-1].Task > serial[i].Task {
			t.Fatalf("serial result not sorted by task: %q after %q", serial[i].Task, serial[i-1].Task)
		}
	}
	for _, workers := range []int{2, 4, 8, 64} {
		for rep := 0; rep < 5; rep++ {
			got, err := loadDirParallel(dir, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, serial) {
				t.Fatalf("workers=%d rep=%d: parallel load differs from serial", workers, rep)
			}
		}
	}
	// The exported entry point agrees too.
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, serial) {
		t.Fatal("LoadDir differs from serial load")
	}
}

func TestLoadDirFirstErrorWins(t *testing.T) {
	dir := writeTraceDir(t, 12)
	// Corrupt two files; the error surfaced must be the one from the
	// file that comes first in directory order, on every run and at
	// every worker count.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), traceSuffix) {
			names = append(names, e.Name())
		}
	}
	if len(names) < 10 {
		t.Fatalf("only %d trace files", len(names))
	}
	first, later := names[2], names[9]
	if err := os.WriteFile(filepath.Join(dir, first), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, later), []byte("also broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := func() string {
		_, err := loadDirParallel(dir, 1)
		if err == nil {
			t.Fatal("serial load of corrupt dir succeeded")
		}
		return err.Error()
	}()
	for _, workers := range []int{2, 4, 8} {
		for rep := 0; rep < 5; rep++ {
			_, err := loadDirParallel(dir, workers)
			if err == nil {
				t.Fatalf("workers=%d: load of corrupt dir succeeded", workers)
			}
			if err.Error() != want {
				t.Fatalf("workers=%d: error %q, want first-in-dir-order error %q", workers, err.Error(), want)
			}
		}
	}
}

func TestSaveSlashTaskNamesDoNotCollide(t *testing.T) {
	// Regression: Save used to flatten '/' to '_', so tasks "a/b" and
	// "a_b" overwrote each other's trace file.
	dir := t.TempDir()
	a := &TaskTrace{Task: "a/b", StartNS: 1, EndNS: 2}
	b := &TaskTrace{Task: "a_b", StartNS: 3, EndNS: 4}
	pa, err := a.Save(dir)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Save(dir)
	if err != nil {
		t.Fatal(err)
	}
	if pa == pb {
		t.Fatalf("tasks %q and %q saved to the same path %s", a.Task, b.Task, pa)
	}
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("LoadDir found %d traces, want 2 (one overwrote the other)", len(got))
	}
	if got[0].Task != "a/b" || got[1].Task != "a_b" {
		t.Fatalf("loaded tasks %q, %q", got[0].Task, got[1].Task)
	}
}

func TestSaveEscapingCollisionFree(t *testing.T) {
	// Percent-encoding must be injective: names built from the escape
	// characters themselves cannot collide either.
	dir := t.TempDir()
	names := []string{"a/b", "a_b", "a%2Fb", "a%b", "a\\b", "a%5Cb", "%", "%25"}
	paths := map[string]string{}
	for _, name := range names {
		tr := &TaskTrace{Task: name, StartNS: 1, EndNS: 2}
		p, err := tr.Save(dir)
		if err != nil {
			t.Fatalf("save %q: %v", name, err)
		}
		if prev, ok := paths[p]; ok {
			t.Fatalf("tasks %q and %q collide at %s", prev, name, p)
		}
		paths[p] = name
	}
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(names) {
		t.Fatalf("LoadDir found %d traces, want %d", len(got), len(names))
	}
}

func TestSaveAtomicNeverObservedPartial(t *testing.T) {
	// Regression: Save used to os.Create the final path and stream JSON
	// into it, so a reader racing the write (the serve poller) observed
	// a torn half-JSON trace. With write-to-temp + rename, every open
	// of the destination sees a complete previous or complete new file.
	dir := t.TempDir()
	tr := &TaskTrace{Task: "atomic", StartNS: 1, EndNS: 2}
	for i := 0; i < 5000; i++ {
		tr.IOTrace = append(tr.IOTrace, IORecord{
			Seq: int64(i), WallNS: int64(i), File: "f.h5", Offset: int64(i) * 4096, Length: 4096,
		})
	}
	path, err := tr.Save(dir)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	fail := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			data, err := os.ReadFile(path)
			if err != nil {
				continue // mid-rename on some platforms; never partial
			}
			if _, derr := Decode(bytes.NewReader(data)); derr != nil {
				select {
				case fail <- fmt.Errorf("observed partial trace (%d bytes): %v", len(data), derr):
				default:
				}
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		tr.StartNS = int64(i)
		tr.EndNS = int64(i) + 100
		if _, err := tr.Save(dir); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}

	// No temp droppings left behind, and the directory holds exactly
	// the one destination file.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !IsTraceFile(e.Name()) {
			t.Errorf("leftover non-trace file %q after saves", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Errorf("%d directory entries after repeated saves, want 1", len(entries))
	}
}

// TestWriteFileAtomic pins the helper serve and history land files
// with: the destination holds exactly the last bytes written, and no
// temp file survives a success or a failed rename.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.bin")
	for _, data := range [][]byte{[]byte("first"), []byte("second, longer"), {}} {
		if err := WriteFileAtomic(path, data); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read back %q, want %q", got, data)
		}
	}
	// Renaming over a directory fails; the temp file must not linger.
	if err := os.Mkdir(filepath.Join(dir, "taken"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(filepath.Join(dir, "taken"), []byte("x")); err == nil {
		t.Fatal("rename over a directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("%d directory entries, want rec.bin and taken only", len(entries))
	}
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	// Regression: Decode used json.Decoder.Decode once and ignored
	// trailing bytes, so a concatenation of two traces (or a trace with
	// garbage appended) silently decoded as its first object.
	one := &TaskTrace{Task: "one", StartNS: 1, EndNS: 2}
	var buf bytes.Buffer
	if err := one.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	clean := append([]byte(nil), buf.Bytes()...)

	// Trailing whitespace/newlines stay legal (Encode itself emits a
	// trailing newline).
	ok := append(append([]byte(nil), clean...), ' ', '\n', '\t', '\r')
	if _, err := Decode(bytes.NewReader(ok)); err != nil {
		t.Fatalf("decode with trailing whitespace failed: %v", err)
	}

	two := &TaskTrace{Task: "two", StartNS: 3, EndNS: 4}
	var buf2 bytes.Buffer
	if err := two.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	concat := append(append([]byte(nil), clean...), buf2.Bytes()...)
	if _, err := Decode(bytes.NewReader(concat)); err == nil {
		t.Fatal("decode of two concatenated traces silently returned the first")
	}
	garbage := append(append([]byte(nil), clean...), []byte("oops")...)
	if _, err := Decode(bytes.NewReader(garbage)); err == nil {
		t.Fatal("decode with trailing garbage succeeded")
	}
}

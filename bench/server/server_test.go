package server

import (
	"os"
	"path/filepath"
	"testing"
)

func TestPeakRSSReadsVmHWM(t *testing.T) {
	status := filepath.Join(t.TempDir(), "status")
	if err := os.WriteFile(status, []byte("Name:\taladind\nVmPeak:\t 2093780 kB\nVmHWM:\t  284904 kB\nVmRSS:\t  100184 kB\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := peakRSSMB(status)
	if err != nil || got != 284904.0/1024 {
		t.Errorf("peakRSSMB = %v, %v; want %v", got, err, 284904.0/1024)
	}
	if err := os.WriteFile(status, []byte("Name:\tkthread\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := peakRSSMB(status); err == nil {
		t.Error("a status file without VmHWM should be an error")
	}
}

func TestDirBytesSumsRegularFiles(t *testing.T) {
	dir := t.TempDir()
	os.MkdirAll(filepath.Join(dir, "sub"), 0o755)
	os.WriteFile(filepath.Join(dir, "a"), make([]byte, 10), 0o644)
	os.WriteFile(filepath.Join(dir, "sub", "b"), make([]byte, 32), 0o644)
	if n, err := DirBytes(dir); err != nil || n != 42 {
		t.Errorf("DirBytes = %d, %v; want 42", n, err)
	}
}

func TestCopyDirCopiesNestedFiles(t *testing.T) {
	src, dst := t.TempDir(), filepath.Join(t.TempDir(), "copy")
	if err := os.MkdirAll(filepath.Join(src, "segments", "0001"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string]string{"wal": "journal", "segments/0001/rel": "tuples"} {
		if err := os.WriteFile(filepath.Join(src, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := CopyDir(dst, src); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dst, "segments", "0001", "rel"))
	if err != nil || string(got) != "tuples" {
		t.Errorf("nested file: %q, %v", got, err)
	}
	if a, _ := DirBytes(src); a != 13 {
		t.Errorf("DirBytes(src) = %d, want 13", a)
	}
	if b, _ := DirBytes(dst); b != 13 {
		t.Errorf("DirBytes(copy) = %d, want 13", b)
	}
}

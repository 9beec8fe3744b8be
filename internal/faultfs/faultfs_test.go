package faultfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

func readAll(t *testing.T, fsys FS, name string) []byte {
	t.Helper()
	rc, err := fsys.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOSPassthrough exercises the production implementation end to end in
// a temp dir: append, reopen-append, rename, truncate, remove.
func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "seg")
	var fsys FS = OS{}

	f, size, err := fsys.OpenAppend(p)
	if err != nil || size != 0 {
		t.Fatalf("open: size=%d err=%v", size, err)
	}
	f.Write([]byte("hello "))
	f.Sync()
	f.Close()

	f, size, err = fsys.OpenAppend(p)
	if err != nil || size != 6 {
		t.Fatalf("reopen: size=%d err=%v", size, err)
	}
	f.Write([]byte("world"))
	f.Close()
	if got := string(readAll(t, fsys, p)); got != "hello world" {
		t.Fatalf("content %q", got)
	}

	if err := fsys.Truncate(p, 5); err != nil {
		t.Fatal(err)
	}
	if got := string(readAll(t, fsys, p)); got != "hello" {
		t.Fatalf("truncated content %q", got)
	}
	if err := fsys.Rename(p, p+".1"); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Open(p); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("want ErrNotExist after rename, got %v", err)
	}
	if err := fsys.Remove(p + ".1"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove(p + ".1"); err != nil {
		t.Fatalf("remove of absent file should be a no-op, got %v", err)
	}
	if _, err := os.Stat(p + ".1"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("file survived Remove")
	}
}

// TestMemBasics: Mem behaves like a filesystem when no fault is armed.
func TestMemBasics(t *testing.T) {
	m := NewMem()
	f, size, _ := m.OpenAppend("a")
	if size != 0 {
		t.Fatalf("fresh size %d", size)
	}
	f.Write([]byte("one"))
	f.Write([]byte("two"))
	f.Close()
	if got := string(m.Bytes("a")); got != "onetwo" {
		t.Fatalf("content %q", got)
	}
	if _, _, err := m.OpenAppend("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename("a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open("a"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
	if got := string(readAll(t, m, "b")); got != "onetwo" {
		t.Fatalf("renamed content %q", got)
	}
	if err := m.Truncate("b", 3); err != nil {
		t.Fatal(err)
	}
	if got := string(m.Bytes("b")); got != "one" {
		t.Fatalf("truncated %q", got)
	}
}

// TestMemFailAt: the armed operation fails with ErrInjected and has no
// effect; operations before and after it succeed.
func TestMemFailAt(t *testing.T) {
	m := NewMem()
	m.FailAt(2)
	f, _, _ := m.OpenAppend("a")
	if _, err := f.Write([]byte("ok")); err != nil {
		t.Fatalf("op 1: %v", err)
	}
	if _, err := f.Write([]byte("boom")); !errors.Is(err, ErrInjected) {
		t.Fatalf("op 2: want ErrInjected, got %v", err)
	}
	if _, err := f.Write([]byte("again")); err != nil {
		t.Fatalf("op 3: %v", err)
	}
	if got := string(m.Bytes("a")); got != "okagain" {
		t.Fatalf("content %q", got)
	}
	if m.Ops() != 3 {
		t.Fatalf("ops %d", m.Ops())
	}
}

// TestMemShortWriteAt: the armed write persists half and reports
// io.ErrShortWrite — a torn append.
func TestMemShortWriteAt(t *testing.T) {
	m := NewMem()
	m.ShortWriteAt(1)
	f, _, _ := m.OpenAppend("a")
	n, err := f.Write([]byte("abcdef"))
	if n != 3 || !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short write: n=%d err=%v", n, err)
	}
	if got := string(m.Bytes("a")); got != "abc" {
		t.Fatalf("content %q", got)
	}
}

// TestMemCrashAt: from the crash point on, operations report success but
// persist nothing — the silent-loss regime the fsync knob exists for.
func TestMemCrashAt(t *testing.T) {
	m := NewMem()
	m.CrashAt(2)
	f, _, _ := m.OpenAppend("a")
	f.Write([]byte("kept"))
	if n, err := f.Write([]byte("lost")); n != 4 || err != nil {
		t.Fatalf("post-crash write must claim success, got n=%d err=%v", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("post-crash sync must claim success: %v", err)
	}
	if got := string(m.Bytes("a")); got != "kept" {
		t.Fatalf("content %q", got)
	}
}

// TestMemKillPower: only fsynced bytes survive a power kill.
func TestMemKillPower(t *testing.T) {
	m := NewMem()
	f, _, _ := m.OpenAppend("a")
	f.Write([]byte("durable"))
	f.Sync()
	f.Write([]byte(" volatile"))
	m.KillPower()
	if got := string(m.Bytes("a")); got != "durable" {
		t.Fatalf("after power kill: %q", got)
	}
}

// TestMemCorrupt flips a bit in place.
func TestMemCorrupt(t *testing.T) {
	m := NewMem()
	m.Put("a", []byte{0x00, 0x00})
	m.Corrupt("a", 1)
	if b := m.Bytes("a"); b[0] != 0x00 || b[1] == 0x00 {
		t.Fatalf("corrupt: % x", b)
	}
}

// TestWriteFileAtomic: a stale torn temp never prefixes the new bytes, the
// result survives a power kill, and a failure at any step (remove stale
// temp, write, sync, rename) leaves the old file intact and no temp behind
// unless the stale temp itself could not be removed.
func TestWriteFileAtomic(t *testing.T) {
	m := NewMem()
	m.Put("f", []byte("old"))
	m.Put("f.tmp", []byte("TORN"))
	if err := WriteFileAtomic(m, "f", []byte("new")); err != nil {
		t.Fatal(err)
	}
	m.KillPower()
	if got := string(m.Bytes("f")); got != "new" {
		t.Fatalf("content after power kill %q, want %q", got, "new")
	}
	if len(m.Names()) != 1 {
		t.Fatalf("files %v, want only f", m.Names())
	}
	for step := 1; step <= 4; step++ {
		m := NewMem()
		m.Put("f", []byte("old"))
		m.FailAt(step)
		if err := WriteFileAtomic(m, "f", []byte("new")); !errors.Is(err, ErrInjected) {
			t.Fatalf("fail at op %d: want ErrInjected, got %v", step, err)
		}
		if got := string(m.Bytes("f")); got != "old" {
			t.Fatalf("fail at op %d: content %q, want the old file", step, got)
		}
		if len(m.Names()) != 1 {
			t.Fatalf("fail at op %d: files %v, want only f", step, m.Names())
		}
	}
}

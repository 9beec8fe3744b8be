// Package faultfs puts a filesystem seam under the durability path. The
// WAL writes through the FS interface instead of package os, so tests can
// substitute Mem: an in-memory filesystem with deterministic fault
// injection — fail, short-write, or silently stop persisting ("crash") at
// the Nth mutating operation — plus a power-kill that discards everything
// not yet fsynced. That is the substrate of the crash-point recovery
// harness: run a scripted ingest against Mem, kill it at every injected
// point, recover from what survived, and compare the recovered answers to
// the refjoin oracle.
package faultfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"sync"
)

// File is the append handle the WAL writes through.
type File interface {
	io.Writer
	// Sync flushes written data to stable storage (fsync).
	Sync() error
	Close() error
}

// FS is the slice of filesystem the WAL needs. Implementations must return
// an error satisfying errors.Is(err, fs.ErrNotExist) when opening a
// missing file for reading.
type FS interface {
	// OpenAppend opens name for appending, creating it if absent, and
	// reports its current size.
	OpenAppend(name string) (File, int64, error)
	// Open opens name for reading.
	Open(name string) (io.ReadCloser, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes name (no error if absent).
	Remove(name string) error
	// Truncate cuts name to size bytes.
	Truncate(name string, size int64) error
}

// WriteFileAtomic replaces name with data through fsys so that a reader
// (or a restart after a crash) sees either the old file or the complete new
// one: it removes any stale name+".tmp" left by an earlier crash (OpenAppend
// appends, so a torn temp must not prefix the new bytes), writes data to a
// fresh temp, syncs and closes it, and renames it over name. On failure
// the temp is removed.
func WriteFileAtomic(fsys FS, name string, data []byte) error {
	tmp := name + ".tmp"
	if err := fsys.Remove(tmp); err != nil {
		return err
	}
	f, _, err := fsys.OpenAppend(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, name)
	}
	if err != nil {
		fsys.Remove(tmp)
	}
	return err
}

// OS is the passthrough production implementation.
type OS struct{}

// OpenAppend implements FS.
func (OS) OpenAppend(name string) (File, int64, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, st.Size(), nil
}

// Open implements FS.
func (OS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

// Rename implements FS.
func (OS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS.
func (OS) Remove(name string) error {
	err := os.Remove(name)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// Truncate implements FS.
func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// Injection kinds for Mem.
type injectKind uint8

const (
	injectNone injectKind = iota
	// injectFail makes the Nth mutating op return ErrInjected having done
	// nothing — a full disk or an I/O error.
	injectFail
	// injectShort makes the Nth write persist only half its bytes and
	// return io.ErrShortWrite — a torn append.
	injectShort
	// injectCrash makes every op from the Nth on report success without
	// persisting anything — the process runs on, acking into the void,
	// until it is killed.
	injectCrash
)

// ErrInjected is returned by operations the injection point fails.
var ErrInjected = errors.New("faultfs: injected fault")

// Mem is an in-memory FS with fault injection. All methods are safe for
// concurrent use. The zero value is not usable; call NewMem.
type Mem struct {
	mu     sync.Mutex
	files  map[string]*memFile
	ops    int
	at     int // 1-based op index the injection triggers at
	kind   injectKind
	downed bool // post-crash: ops succeed but persist nothing
}

// memFile separates what the "OS" has accepted (data — survives a process
// kill) from what has reached stable storage (the synced prefix — all that
// survives a power kill).
type memFile struct {
	data   []byte
	synced int
}

// NewMem returns an empty filesystem with no injection armed.
func NewMem() *Mem { return &Mem{files: map[string]*memFile{}} }

// FailAt arms injection: the n-th mutating operation (1-based; Write,
// Sync, Rename, Remove, Truncate) returns ErrInjected without effect.
func (m *Mem) FailAt(n int) { m.arm(n, injectFail) }

// ShortWriteAt arms injection: the n-th mutating operation, if a write,
// persists only half its bytes and returns io.ErrShortWrite.
func (m *Mem) ShortWriteAt(n int) { m.arm(n, injectShort) }

// CrashAt arms injection: from the n-th mutating operation on, everything
// reports success but nothing is persisted.
func (m *Mem) CrashAt(n int) { m.arm(n, injectCrash) }

func (m *Mem) arm(n int, k injectKind) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.at, m.kind = n, k
}

// Ops reports how many mutating operations have been counted so far —
// run a script once uninjected to size a crash-point sweep.
func (m *Mem) Ops() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// step counts one mutating op and reports whether the injection fires on
// it. Callers hold m.mu.
func (m *Mem) step() (fire bool) {
	m.ops++
	if m.kind == injectCrash && m.at > 0 && m.ops >= m.at {
		m.downed = true
	}
	return m.at > 0 && m.ops == m.at
}

// KillPower simulates power loss: every file keeps only its fsynced
// prefix. Data accepted by Write but never Synced is gone.
func (m *Mem) KillPower() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range m.files {
		f.data = f.data[:f.synced]
	}
}

// Corrupt flips one bit at off in name (no-op past EOF) — bit rot for the
// recovery tests.
func (m *Mem) Corrupt(name string, off int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.files[name]; ok && off >= 0 && off < int64(len(f.data)) {
		f.data[off] ^= 0x40
	}
}

// Bytes returns a copy of name's current content (nil if absent).
func (m *Mem) Bytes(name string) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil
	}
	return append([]byte(nil), f.data...)
}

// Put replaces name's content (fully synced) without counting an op —
// test setup.
func (m *Mem) Put(name string, b []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = &memFile{data: append([]byte(nil), b...), synced: len(b)}
}

// Names lists existing files, sorted.
func (m *Mem) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.files))
	for n := range m.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// OpenAppend implements FS. Opening counts no op; only mutation does.
func (m *Mem) OpenAppend(name string) (File, int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		f = &memFile{}
		m.files[name] = f
	}
	return &memAppend{fs: m, name: name}, int64(len(f.data)), nil
}

// Open implements FS.
func (m *Mem) Open(name string) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("faultfs: open %s: %w", name, fs.ErrNotExist)
	}
	return io.NopCloser(bytes.NewReader(append([]byte(nil), f.data...))), nil
}

// Rename implements FS.
func (m *Mem) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.step() {
		return fmt.Errorf("faultfs: rename %s: %w", oldname, ErrInjected)
	}
	if m.downed {
		return nil
	}
	f, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("faultfs: rename %s: %w", oldname, fs.ErrNotExist)
	}
	delete(m.files, oldname)
	m.files[newname] = f
	return nil
}

// Remove implements FS.
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.step() {
		return fmt.Errorf("faultfs: remove %s: %w", name, ErrInjected)
	}
	if m.downed {
		return nil
	}
	delete(m.files, name)
	return nil
}

// Truncate implements FS.
func (m *Mem) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.step() {
		return fmt.Errorf("faultfs: truncate %s: %w", name, ErrInjected)
	}
	if m.downed {
		return nil
	}
	f, ok := m.files[name]
	if !ok || size < 0 || size > int64(len(f.data)) {
		return fmt.Errorf("faultfs: truncate %s to %d", name, size)
	}
	f.data = f.data[:size]
	if f.synced > int(size) {
		f.synced = int(size)
	}
	return nil
}

// memAppend is an append-only handle into a Mem file.
type memAppend struct {
	fs     *Mem
	name   string
	closed bool
}

// Write implements io.Writer with the armed injection applied.
func (a *memAppend) Write(p []byte) (int, error) {
	a.fs.mu.Lock()
	defer a.fs.mu.Unlock()
	if a.closed {
		return 0, errors.New("faultfs: write on closed file")
	}
	fire := a.fs.step()
	if a.fs.downed {
		return len(p), nil // accepted, never persisted
	}
	f := a.fs.files[a.name]
	if f == nil { // removed underneath the handle
		return 0, fmt.Errorf("faultfs: write %s: %w", a.name, fs.ErrNotExist)
	}
	if fire {
		switch a.fs.kind {
		case injectFail:
			return 0, fmt.Errorf("faultfs: write %s: %w", a.name, ErrInjected)
		case injectShort:
			n := len(p) / 2
			f.data = append(f.data, p[:n]...)
			return n, io.ErrShortWrite
		}
	}
	f.data = append(f.data, p...)
	return len(p), nil
}

// Sync implements File: marks everything written so far power-durable.
func (a *memAppend) Sync() error {
	a.fs.mu.Lock()
	defer a.fs.mu.Unlock()
	if a.fs.step() && a.fs.kind == injectFail {
		return fmt.Errorf("faultfs: sync %s: %w", a.name, ErrInjected)
	}
	if a.fs.downed {
		return nil
	}
	if f := a.fs.files[a.name]; f != nil {
		f.synced = len(f.data)
	}
	return nil
}

// Close implements File.
func (a *memAppend) Close() error {
	a.fs.mu.Lock()
	defer a.fs.mu.Unlock()
	a.closed = true
	return nil
}

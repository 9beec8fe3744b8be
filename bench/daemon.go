package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"oij/internal/server"
	"oij/internal/trace"
)

// buildDaemon compiles cmd/oijd into root/.bench_build and returns the
// binary's path.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "oijd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/oijd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building oijd: %v\n%s", err, out)
	}
	return bin, nil
}

// findRoot locates the repository root (the directory holding cmd/oijd)
// from the working directory: the root itself, or bench/ inside it.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "oijd", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("cmd/oijd not found: run from the repository root or bench/")
}

// daemon is one running oijd process, spawned in its own process group.
type daemon struct {
	cmd    *exec.Cmd
	addr   string // join protocol address
	admin  string // observability address
	stdout *lineWatcher
	stderr bytes.Buffer
	waited chan struct{}
	err    error // exit status, valid once waited is closed
}

// lineWatcher receives the daemon's stdout and reports the two bound
// addresses once both startup lines have been printed.
type lineWatcher struct {
	mu    sync.Mutex
	buf   []byte
	addr  string
	admin string
	ready chan struct{}
}

func (lw *lineWatcher) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.buf = append(lw.buf, p...)
	for {
		i := bytes.IndexByte(lw.buf, '\n')
		if i < 0 {
			break
		}
		line := string(lw.buf[:i])
		lw.buf = lw.buf[i+1:]
		switch {
		case strings.HasPrefix(line, "oijd: serving ") && strings.Contains(line, " on "):
			lw.addr = line[strings.LastIndex(line, " on ")+4:]
		case strings.HasPrefix(line, "oijd: observability on http://"):
			rest := strings.TrimPrefix(line, "oijd: observability on http://")
			lw.admin, _, _ = strings.Cut(rest, " ")
		}
		if lw.addr != "" && lw.admin != "" && lw.ready != nil {
			close(lw.ready)
			lw.ready = nil
		}
	}
	return len(p), nil
}

// live tracks every daemon this process has started and not yet reaped,
// so each exit path (normal return, signal, panic) can kill them all.
var live struct {
	sync.Mutex
	set     map[*daemon]struct{}
	pidfile string
}

// guardPidfile refuses to start while a daemon recorded by an earlier run
// is still alive: a leaked idle daemon spins on both cores and distorts
// every number this run would take.
func guardPidfile(out string) error {
	live.pidfile = filepath.Join(out, "oijd.pids")
	data, err := os.ReadFile(live.pidfile)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, f := range strings.Fields(string(data)) {
		pid, err := strconv.Atoi(f)
		if err != nil {
			continue
		}
		cmdline, err := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", pid))
		if err == nil && bytes.Contains(cmdline, []byte("oijd")) {
			return fmt.Errorf("oijd pid %d from an earlier run is still alive (recorded in %s); stop it first", pid, live.pidfile)
		}
	}
	return os.Remove(live.pidfile)
}

// writePidfileLocked records the live daemons; live must be locked.
func writePidfileLocked() error {
	if live.pidfile == "" {
		return nil
	}
	var b strings.Builder
	for d := range live.set {
		fmt.Fprintln(&b, d.cmd.Process.Pid)
	}
	if b.Len() == 0 {
		return os.Remove(live.pidfile)
	}
	return os.WriteFile(live.pidfile, []byte(b.String()), 0o644)
}

// killAll SIGKILLs every live daemon's process group and waits for each.
func killAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// spawnDaemon starts oijd with args plus ephemeral join and admin
// addresses, and returns once both addresses are bound.
func spawnDaemon(bin string, args []string) (*daemon, error) {
	d := &daemon{stdout: &lineWatcher{ready: make(chan struct{})}, waited: make(chan struct{})}
	ready := d.stdout.ready
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0"}, args...)...)
	d.cmd.Stdout = d.stdout
	d.cmd.Stderr = &d.stderr
	// Own process group, so a terminal's SIGINT reaches only the benchmark,
	// which then stops the daemon itself; Pdeathsig covers a benchmark
	// killed outright.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	live.Lock()
	if err := d.cmd.Start(); err != nil {
		live.Unlock()
		return nil, fmt.Errorf("starting oijd: %w", err)
	}
	if live.set == nil {
		live.set = map[*daemon]struct{}{}
	}
	live.set[d] = struct{}{}
	perr := writePidfileLocked()
	live.Unlock()
	go func() {
		d.err = d.cmd.Wait()
		live.Lock()
		delete(live.set, d)
		// Failing to drop a reaped pid only makes the next run look up a
		// dead process.
		_ = writePidfileLocked()
		live.Unlock()
		close(d.waited)
	}()
	if perr != nil {
		d.kill()
		return nil, fmt.Errorf("recording the daemon pid: %w", perr)
	}
	select {
	case <-ready:
	case <-d.waited:
		return nil, fmt.Errorf("oijd exited during startup: %v\n%s", d.err, d.stderr.String())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, errors.New("oijd did not report its addresses within 60s")
	}
	d.stdout.mu.Lock()
	d.addr, d.admin = d.stdout.addr, d.stdout.admin
	d.stdout.mu.Unlock()
	return d, nil
}

// stop sends SIGTERM and requires a clean exit. A daemon stopped right
// after startup may die of the signal's default action instead: oijd
// installs its handler only after printing its addresses, so justStarted
// accepts that exit too.
func (d *daemon) stop(justStarted bool) error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling oijd: %w", err)
	}
	select {
	case <-d.waited:
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("oijd did not exit within 30s of SIGTERM")
	}
	var ee *exec.ExitError
	if justStarted && errors.As(d.err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	if d.err != nil {
		return fmt.Errorf("oijd exited with %v\n%s", d.err, d.stderr.String())
	}
	return nil
}

// kill SIGKILLs the daemon's process group and waits for the daemon.
func (d *daemon) kill() {
	syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
	<-d.waited
}

// cpuSeconds reads the daemon's user+system CPU time from /proc.
func (d *daemon) cpuSeconds() (float64, error) {
	return procCPUSeconds(d.cmd.Process.Pid)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times (100 on
// every Linux platform Go supports).
const clockTicks = 100

func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the name.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMiB reads VmHWM, the daemon's peak resident set, in MiB.
func (d *daemon) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("VmHWM not found")
}

// statusz scrapes the daemon's /statusz document.
func (d *daemon) statusz() (server.Status, error) {
	var st server.Status
	err := getJSON("http://"+d.admin+"/statusz", &st)
	return st, err
}

// tracez scrapes the daemon's completed-span ring.
func (d *daemon) tracez() (trace.TracezDoc, error) {
	var doc trace.TracezDoc
	err := getJSON("http://"+d.admin+"/tracez", &doc)
	return doc, err
}

var httpClient = &http.Client{Timeout: 30 * time.Second}

func getJSON(url string, v any) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

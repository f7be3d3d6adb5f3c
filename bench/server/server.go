// Package server builds and drives real aladind processes for the
// benchmark: one fixed flag set, a free loopback port, readiness polling,
// graceful and hard stops, and the peak-RSS reading of the server pid.
package server

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// FixedFlags are the aladind settings every benchmark server runs with
// (BENCHMARK.json's workloads assume them; see README.md):
//
//   - -timeout 0: the default 30 s per-request timeout turns one long
//     streamed batch into a 504 with nothing committed;
//   - -workers 0: one worker per thread (see Threads);
//   - -checkpoint-interval 0: checkpoints never fire by timer, so
//     background work depends on the input alone.
//
// Every WAL append is fsynced — aladind has no other flush policy.
var FixedFlags = []string{"-timeout", "0", "-workers", "0", "-checkpoint-interval", "0"}

// Threads is the GOMAXPROCS every benchmark server runs with. run.sh pins
// the harness, and with it every server, to one CPU, which alone would
// make the Go runtime pick 1. A server with a single P hands a request
// that arrives during a long computation to the runtime's own preemption
// (10 ms slices), and a read beside a streamed upload would measure that
// slice. With two threads on the one CPU the kernel does the sharing, as
// it does on a machine whose CPUs are all busy.
const Threads = 2

// The two -checkpoint-every settings of a run. While sources are loaded
// the primary checkpoints after every 8 journaled mutations. Once a
// replica is attached it must not checkpoint at all: a count-triggered
// checkpoint runs right after the commit that reached the count and trims
// the WAL at once, so a replica that has not yet fetched that record —
// its long poll wakes every 100 ms — finds it gone, turns stale and stays
// so until it is restarted (a known defect, see README.md).
const (
	CheckpointEvery8 = 8
	CheckpointNever  = 0
)

// Build compiles cmd/aladind of the module rooted at repoRoot into outDir
// and returns the binary's path.
func Build(repoRoot, outDir string) (string, error) {
	bin := filepath.Join(outDir, "aladind")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/aladind")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building aladind: %w\n%s", err, out)
	}
	return bin, nil
}

// Proc is one running aladind.
type Proc struct {
	URL     string
	cmd     *exec.Cmd
	logFile *os.File
	waited  chan struct{}
	waitErr error
}

// running holds every aladind started and not yet waited for, so that a
// harness that is told to stop can take them all down with it.
var (
	runningMu sync.Mutex
	running   = map[*Proc]bool{}
)

// KillAll kills every aladind that is still running and waits for each.
func KillAll() {
	runningMu.Lock()
	procs := make([]*Proc, 0, len(running))
	for p := range running {
		procs = append(procs, p)
	}
	runningMu.Unlock()
	for _, p := range procs {
		p.Kill()
	}
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// StartPrimary boots aladind on dataDir (created if missing; recovered if
// it holds a warehouse) and returns once /readyz answers 200.
func StartPrimary(bin, dataDir string, checkpointEvery int) (*Proc, error) {
	return start(bin, dataDir, "-empty", "-checkpoint-every", strconv.Itoa(checkpointEvery))
}

// StartReplica boots a read-only replica of primary on dataDir. It
// returns once the replica reports ready, i.e. bootstrapped and streaming.
func StartReplica(bin, dataDir, primary string) (*Proc, error) {
	return start(bin, dataDir, "-replica-of", primary, "-checkpoint-every", strconv.Itoa(CheckpointEvery8))
}

func start(bin, dataDir string, role ...string) (*Proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	logFile, err := os.OpenFile(dataDir+".log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-data", dataDir}, FixedFlags...)
	cmd := exec.Command(bin, append(args, role...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(Threads))
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	p := &Proc{URL: "http://" + addr, cmd: cmd, logFile: logFile, waited: make(chan struct{})}
	runningMu.Lock()
	running[p] = true
	runningMu.Unlock()
	go func() {
		p.waitErr = cmd.Wait()
		runningMu.Lock()
		delete(running, p)
		runningMu.Unlock()
		close(p.waited)
	}()
	if err := p.awaitReady(60 * time.Second); err != nil {
		p.Kill()
		return nil, err
	}
	return p, nil
}

func (p *Proc) awaitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-p.waited:
			return fmt.Errorf("aladind exited before ready: %v (log %s)", p.waitErr, p.logFile.Name())
		default:
		}
		resp, err := http.Get(p.URL + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("aladind not ready after %v (log %s)", limit, p.logFile.Name())
}

// Stop shuts the server down gracefully (SIGTERM: drain, checkpoint,
// close) and waits for it to exit.
func (p *Proc) Stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.waited:
	case <-time.After(60 * time.Second):
		p.Kill()
		return errors.New("aladind ignored SIGTERM for 60s; killed")
	}
	p.logFile.Close()
	return p.waitErr
}

// Kill is kill -9: no drain, no checkpoint. It waits for the process to
// be gone. The OS page cache survives, so what a restart finds is what
// was written, not only what was fsynced.
func (p *Proc) Kill() {
	_ = p.cmd.Process.Kill()
	<-p.waited
	p.logFile.Close()
}

// PeakRSSMB reads VmHWM, the peak resident set of the server so far.
func (p *Proc) PeakRSSMB() (float64, error) {
	return peakRSSMB(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
}

func peakRSSMB(statusPath string) (float64, error) {
	b, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", statusPath)
}

// DirBytes sums the sizes of the regular files under dir.
func DirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// CopyDir copies the regular files and directories under src to dst.
func CopyDir(dst, src string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		if !info.Mode().IsRegular() {
			return fmt.Errorf("%s is neither a file nor a directory", path)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
}

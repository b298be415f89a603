package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Pinning splits the host's cores between the daemon and the load
// generator. With one core both share it and nothing is pinned.
type Pinning struct {
	Daemon, Generator []int
}

// SplitCores gives the generator the first quarter of the cores (at
// least one) and the daemon the rest; with one core it returns the zero
// Pinning.
func SplitCores(cores []int) Pinning {
	if len(cores) < 2 {
		return Pinning{}
	}
	g := len(cores) / 4
	if g < 1 {
		g = 1
	}
	return Pinning{Generator: cores[:g], Daemon: cores[g:]}
}

// AllowedCPUs lists the cores this process may run on, from the
// Cpus_allowed_list line of /proc/self/status (as in "0-3,8").
func AllowedCPUs() ([]int, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		list, ok := strings.CutPrefix(line, "Cpus_allowed_list:")
		if !ok {
			continue
		}
		var cores []int
		for _, part := range strings.Split(strings.TrimSpace(list), ",") {
			lo, hi, isRange := strings.Cut(part, "-")
			a, err := strconv.Atoi(lo)
			if err != nil {
				return nil, fmt.Errorf("Cpus_allowed_list %q: %w", list, err)
			}
			b := a
			if isRange {
				if b, err = strconv.Atoi(hi); err != nil {
					return nil, fmt.Errorf("Cpus_allowed_list %q: %w", list, err)
				}
			}
			for c := a; c <= b; c++ {
				cores = append(cores, c)
			}
		}
		return cores, nil
	}
	return nil, fmt.Errorf("no Cpus_allowed_list in /proc/self/status")
}

// pinnedEnv carries the host's core list across PinGenerator's re-exec,
// after which this process sees only the generator's cores.
const pinnedEnv = "PERFBENCH_CORES"

// PinGenerator moves this process onto the generator's cores. On a host
// with two or more cores it re-executes the binary under taskset with
// GOMAXPROCS set to match, and the new image returns the Pinning; with
// one core, or without taskset, it returns the zero Pinning and the
// daemon and generator share the machine. It also returns the host's
// core count.
func PinGenerator() (Pinning, int, error) {
	if v, ok := os.LookupEnv(pinnedEnv); ok {
		var cores []int
		for _, f := range strings.Split(v, ",") {
			c, err := strconv.Atoi(f)
			if err != nil {
				return Pinning{}, 0, fmt.Errorf("%s=%q: %w", pinnedEnv, v, err)
			}
			cores = append(cores, c)
		}
		return SplitCores(cores), len(cores), nil
	}
	cores, err := AllowedCPUs()
	if err != nil {
		return Pinning{}, 0, err
	}
	pin := SplitCores(cores)
	taskset, err := exec.LookPath("taskset")
	if len(pin.Generator) == 0 || err != nil {
		return Pinning{}, len(cores), nil
	}
	self, err := os.Executable()
	if err != nil {
		return Pinning{}, 0, err
	}
	argv := append([]string{"taskset", "-c", CPUList(pin.Generator), self}, os.Args[1:]...)
	env := append(os.Environ(), pinnedEnv+"="+CPUList(cores), fmt.Sprintf("GOMAXPROCS=%d", len(pin.Generator)))
	return Pinning{}, 0, syscall.Exec(taskset, argv, env) // returns only on failure
}

// CPUList renders cores as a taskset list.
func CPUList(cores []int) string {
	s := make([]string, len(cores))
	for i, c := range cores {
		s[i] = strconv.Itoa(c)
	}
	return strings.Join(s, ",")
}

func (p Pinning) String() string {
	if len(p.Daemon) == 0 {
		return "none: one core shared by daemon and generator"
	}
	return fmt.Sprintf("daemon cpus %s (GOMAXPROCS=%d), generator cpus %s (GOMAXPROCS=%d)",
		CPUList(p.Daemon), len(p.Daemon), CPUList(p.Generator), len(p.Generator))
}

// Daemon is a running geomapd process.
type Daemon struct {
	Addr string
	Pid  int

	cmd    *exec.Cmd
	stderr *lockedBuffer
	exited chan struct{}
	err    error // Wait's result, readable once exited is closed
}

// lockedBuffer collects the daemon's log while it runs.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// StartDaemon launches bin (geomapd) on an ephemeral loopback port,
// pinned to cores when given, and waits until /healthz answers 200.
// runDir receives the address file.
func StartDaemon(bin, runDir string, cores []int, args ...string) (*Daemon, error) {
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	addrFile, err := filepath.Abs(filepath.Join(runDir, fmt.Sprintf("geomapd-%d-%d.addr", os.Getpid(), time.Now().UnixNano())))
	if err != nil {
		return nil, err
	}
	argv := append([]string{bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)
	env := os.Environ()
	if len(cores) > 0 {
		argv = append([]string{"taskset", "-c", CPUList(cores)}, argv...)
		env = append(env, fmt.Sprintf("GOMAXPROCS=%d", len(cores)))
	}
	d := &Daemon{stderr: &lockedBuffer{}, exited: make(chan struct{})}
	d.cmd = exec.Command(argv[0], argv[1:]...)
	d.cmd.Env = env
	d.cmd.Stdout = io.Discard
	d.cmd.Stderr = d.stderr
	// Should this process die without stopping the daemon, the kernel
	// kills it, so no daemon outlives a run.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting geomapd: %w", err)
	}
	d.Pid = d.cmd.Process.Pid
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	defer os.Remove(addrFile)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil {
			d.Addr = strings.TrimSpace(string(b))
			if healthy(d.Addr) {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("geomapd exited during start-up: %v\n%s", d.err, d.stderr)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.Stop()
			return nil, fmt.Errorf("geomapd not healthy after 60 s\n%s", d.stderr)
		}
	}
}

func healthy(addr string) bool {
	c, err := Dial(addr)
	if err != nil {
		return false
	}
	defer c.Close()
	var status struct{}
	return c.Get("/healthz", &status) == nil
}

// Stop drains the daemon with SIGTERM, as an operator would, and waits
// for it to exit; after 30 s it is killed.
func (d *Daemon) Stop() error {
	select {
	case <-d.exited:
		return fmt.Errorf("geomapd exited early: %v\n%s", d.err, d.stderr)
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill() // drain hung; the error below reports it
		<-d.exited
		return fmt.Errorf("geomapd did not drain within 30 s\n%s", d.stderr)
	}
	if d.err != nil {
		return fmt.Errorf("geomapd: %v\n%s", d.err, d.stderr)
	}
	return nil
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one long-running program process (a serve instance) in its own
// process group, with stdout and stderr captured to a log file.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  string
	// done is closed once the process has been waited for.
	done chan struct{}
}

// command prepares a program binary to run in its own process group; the
// whole group is killed when ctx ends, so a failure, a timeout or SIGINT
// leaves nothing behind.
func command(ctx context.Context, bin string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	return cmd
}

// startProc launches a server; name labels its log file.
func startProc(ctx context.Context, dir, name, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, log: filepath.Join(dir, name+".log"), done: make(chan struct{})}
	logFile, err := os.Create(p.log)
	if err != nil {
		return nil, err
	}
	p.cmd = command(ctx, bin, args...)
	p.cmd.Stdout, p.cmd.Stderr = logFile, logFile
	if err := p.cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		p.cmd.Wait() // the exit status of a server we kill carries nothing
		logFile.Close()
		close(p.done)
	}()
	return p, nil
}

// stop kills the process group and waits until the process has ended.
func (p *proc) stop() {
	syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	<-p.done
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// tail is the end of the process's captured output, for failure reports.
func (p *proc) tail() string {
	data, _ := os.ReadFile(p.log)
	if len(data) > 2048 {
		data = data[len(data)-2048:]
	}
	return strings.TrimSpace(string(data))
}

var listenRE = regexp.MustCompile(`serving .* on (http://[0-9.]+:[0-9]+)`)

// awaitReady waits until the server has printed the address it bound
// (-addr 127.0.0.1:0 picks a free port) and /readyz answers 200, and
// returns the base URL. A server that exits first, or stays unready for
// ten seconds, fails with its log tail.
func (p *proc) awaitReady(ctx context.Context) (string, error) {
	deadline := time.Now().Add(10 * time.Second)
	base := ""
	for {
		if p.exited() {
			return "", fmt.Errorf("%s exited before it was ready:\n%s", p.name, p.tail())
		}
		if base == "" {
			data, _ := os.ReadFile(p.log)
			if m := listenRE.FindSubmatch(data); m != nil {
				base = string(m[1])
			}
		}
		if base != "" {
			if status, _, err := httpGet(ctx, http.DefaultClient, base+"/readyz"); err == nil && status == http.StatusOK {
				return base, nil
			}
		}
		if err := ctx.Err(); err != nil {
			return "", err
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("%s not ready after 10s:\n%s", p.name, p.tail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cpuTime is CPU time split into user and kernel mode.
type cpuTime struct{ user, sys time.Duration }

func (c cpuTime) total() time.Duration { return c.user + c.sys }

func (c cpuTime) sub(d cpuTime) cpuTime { return cpuTime{c.user - d.user, c.sys - d.sys} }

func (c cpuTime) add(d cpuTime) cpuTime { return cpuTime{c.user + d.user, c.sys + d.sys} }

// scale is c times f, for spreading an op's CPU time over sub-windows.
func (c cpuTime) scale(f float64) cpuTime {
	return cpuTime{time.Duration(float64(c.user) * f), time.Duration(float64(c.sys) * f)}
}

// cpu is the CPU time the process has used so far, from /proc/<pid>/stat
// (fields 14 and 15, in USER_HZ = 100 ticks per second).
func (p *proc) cpu() (cpuTime, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return cpuTime{}, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return cpuTime{}, fmt.Errorf("unexpected /proc stat line %q", data)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return cpuTime{}, fmt.Errorf("unexpected /proc stat line %q", data)
	}
	const tick = time.Second / 100
	return cpuTime{time.Duration(utime) * tick, time.Duration(stime) * tick}, nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB,
// 0 when /proc does not give it.
func (p *proc) peakRSSMB() float64 {
	data, _ := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// runTool runs a program binary to completion and returns its process
// state (exit status, rusage); on failure the error carries its output.
func runTool(ctx context.Context, bin string, args ...string) (*os.ProcessState, error) {
	cmd := command(ctx, bin, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return cmd.ProcessState, fmt.Errorf("%s %s: %w\n%s", filepath.Base(bin), strings.Join(args, " "), err, out.String())
	}
	return cmd.ProcessState, nil
}

// selfCPU is the benchmark process's own user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// moduleRoot walks up from the working directory to the directory holding
// go.mod: the driver runs the benchmark from there, `go test` from
// benchmark/.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory: run from the repository")
		}
		dir = parent
	}
}

// buildPrograms compiles the three programs the workloads drive into binDir.
func buildPrograms(ctx context.Context, root, binDir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", binDir+string(filepath.Separator),
		"./cmd/gendata", "./cmd/mgard", "./cmd/serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

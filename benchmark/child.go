package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir is where compiled binaries go, relative to the repository root;
// run.sh puts the harness and Go's caches there too.
const buildDir = ".bench_build"

// buildSflowd compiles the real ./cmd/sflowd from the checkout at root and
// returns the binary's path. A warm build cache makes this a sub-second
// no-op, so every run builds: a stale binary can never be measured.
func buildSflowd(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "sflowd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sflowd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building sflowd: %v\n%s", err, out)
	}
	return bin, nil
}

// child is one running sflowd.
type child struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time
	stderr  bytes.Buffer
	done    chan struct{} // closed once the process has been waited for
}

// spawn starts sflowd and blocks until it printed its served address.
func spawn(bin string, args []string) (*child, error) {
	c := &child{cmd: exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)}
	c.cmd.Stderr = &c.stderr
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.started = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting sflowd: %w", err)
	}
	c.done = make(chan struct{})
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
		for sc.Scan() { // drain so the child never blocks on a full pipe
		}
		_ = c.cmd.Wait() // the exit status of a signalled sflowd says nothing
		close(c.done)
	}()
	select {
	case line, ok := <-lines:
		i := strings.LastIndex(line, " on ")
		if !ok || i < 0 {
			c.reap()
			return nil, fmt.Errorf("sflowd exited or printed no address (%q): %s", line, c.stderr.String())
		}
		c.addr = strings.TrimSpace(line[i+4:])
	case <-time.After(60 * time.Second):
		c.reap()
		return nil, fmt.Errorf("sflowd printed no address within 60s")
	}
	return c, nil
}

// reap stops the child: SIGINT for the clean shutdown that prints the metrics
// dump, SIGKILL if it has not exited 5s later. It returns once the process
// has been waited for, so no sflowd outlives the harness.
func (c *child) reap() {
	if c.cmd.Process == nil {
		return
	}
	_ = c.cmd.Process.Signal(os.Interrupt) // already gone is fine
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
	c.cmd.Process = nil
}

// parseCounters parses the shutdown metrics dump ("counter <key> <value>" lines).
func parseCounters(dump string) map[string]int64 {
	out := make(map[string]int64)
	for _, line := range strings.Split(dump, "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && f[0] == "counter" {
			if v, err := strconv.ParseInt(f[2], 10, 64); err == nil {
				out[f[1]] = v
			}
		}
	}
	return out
}

// clockTick is the kernel's USER_HZ; /proc reports CPU time in these.
const clockTick = 100

// parseProcStat extracts user+system CPU seconds from /proc/<pid>/stat. The
// command name may contain spaces and parentheses, so fields are counted
// from the last ')'.
func parseProcStat(data string) (float64, error) {
	i := strings.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", data)
	}
	f := strings.Fields(data[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: utime %q stime %q", f[11], f[12])
	}
	return float64(utime+stime) / clockTick, nil
}

// parseProcStatus extracts VmHWM and VmRSS, in MB, from /proc/<pid>/status.
func parseProcStatus(data string) (hwmMB, rssMB float64, err error) {
	found := 0
	for _, line := range strings.Split(data, "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		var dst *float64
		switch f[0] {
		case "VmHWM:":
			dst = &hwmMB
		case "VmRSS:":
			dst = &rssMB
		default:
			continue
		}
		kb, perr := strconv.ParseFloat(f[1], 64)
		if perr != nil {
			return 0, 0, fmt.Errorf("proc status: %q", line)
		}
		*dst = kb / 1024
		found++
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("proc status: VmHWM/VmRSS missing")
	}
	return hwmMB, rssMB, nil
}

func (c *child) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(data))
}

func (c *child) memoryMB() (hwm, rss float64, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	return parseProcStatus(string(data))
}

// selfCPUSeconds is the harness's own user+system CPU so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

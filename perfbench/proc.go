package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// unitTimeout bounds one subprocess, so a hung program fails its unit
// instead of the whole run.
const unitTimeout = 60 * time.Second

// proc is the outcome of one finished subprocess.
type proc struct {
	out, errOut []byte
	wall        time.Duration
	exit        int   // -1 if it did not exit normally
	maxRSSKB    int64 // peak RSS of the process and its waited-for children
}

// runProc runs a program to completion and times it from start to exit.
// The program runs in a process group of its own, which a timeout kills
// as a whole: racedetect run starts the go command and the target.
func runProc(dir string, env []string, name string, args ...string) (proc, error) {
	ctx, cancel := context.WithTimeout(context.Background(), unitTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.Dir = dir
	if env != nil {
		cmd.Env = append(os.Environ(), env...)
	}
	var out, errOut bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errOut
	t0 := time.Now()
	err := cmd.Run()
	p := proc{wall: time.Since(t0), exit: -1}
	p.out, p.errOut = out.Bytes(), errOut.Bytes()
	if cmd.ProcessState != nil {
		p.exit = cmd.ProcessState.ExitCode()
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			p.maxRSSKB = ru.Maxrss
		}
	}
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		return p, fmt.Errorf("%s: %w", name, err)
	}
	if ctx.Err() != nil {
		return p, fmt.Errorf("%s: timed out after %v", name, unitTimeout)
	}
	return p, nil
}

// lastLines returns the end of b for error messages.
func lastLines(b []byte) string {
	const max = 400
	if len(b) > max {
		b = b[len(b)-max:]
	}
	return string(bytes.TrimSpace(b))
}

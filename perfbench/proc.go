package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTick is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// 100 on Linux).
const clockTick = 10 * time.Millisecond

// statFields returns the fields of /proc/<pid>/stat after the command
// name, and the command name itself.
func statFields(pid int) (string, []string, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return "", nil, err
	}
	open, end := bytes.IndexByte(b, '('), bytes.LastIndexByte(b, ')')
	if open < 0 || end < open {
		return "", nil, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	return string(b[open+1 : end]), strings.Fields(string(b[end+1:])), nil
}

// childPIDs lists this process's children whose command is comm.
func childPIDs(comm string) ([]int, error) {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil, err
	}
	self := strconv.Itoa(os.Getpid())
	var out []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		name, f, err := statFields(pid)
		if err != nil || len(f) < 2 {
			continue // exited while we looked
		}
		if name == comm && f[1] == self {
			out = append(out, pid)
		}
	}
	return out, nil
}

// procCPU is the user plus system CPU time pid has used.
func procCPU(pid int) (time.Duration, error) {
	_, f, err := statFields(pid)
	if err != nil {
		return 0, err
	}
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu times", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procRSSMB is pid's resident set size in MiB.
func procRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmRSS", pid)
}

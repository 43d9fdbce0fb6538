package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// selfCPU is the CPU time (user + system) this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the CPU time of the calling OS thread; the caller has locked
// its goroutine to the thread.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD, which package syscall does not name
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSSMB is this process's peak resident set (ru_maxrss is in KB on Linux).
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// clockTick is USER_HZ; Linux fixes it at 100 for every architecture Go runs on.
const clockTick = 10 * time.Millisecond

// procCPU reads utime+stime of another process from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
	fields := strings.Fields(rest)
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procPeakRSSMB reads VmHWM of another process from /proc/<pid>/status.
func procPeakRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

// Env records where a report was measured, so a number is never read without
// its machine.
type Env struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	GitDirty   bool   `json:"git_dirty"`
	DataDirFS  string `json:"data_dir_fs"`
}

func readEnv(root, dataDir string) Env {
	env := Env{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitSHA:     "unknown",
		DataDirFS:  fsType(dataDir),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	// Only ask git when root itself is a work tree: in a bare checkout git
	// would walk up into directories the benchmark has no business reading.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			env.GitSHA = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
			env.GitDirty = len(strings.TrimSpace(string(out))) > 0
		}
	}
	return env
}

// fsType names the filesystem holding path, by the longest mount point in
// /proc/mounts that prefixes it.
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, bestLen := "unknown", -1
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > bestLen {
			best, bestLen = f[2], len(mp)
		}
	}
	return best
}

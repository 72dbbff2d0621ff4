package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// runRecord is the configuration every result is read against. Workloads
// add their own sizes (generations, jobs, daemon settings) to it.
func runRecord(cfg runConfig) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"revision":   revision(cfg.root),
	}
}

// revision identifies the code under test: the git commit when the checkout
// is a repository, otherwise a digest of its Go sources and module files.
func revision(root string) string {
	// Only the checkout's own repository counts: git would otherwise walk
	// up and report the commit of an enclosing one.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
		if err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTimes reads the host's CPU counters from /proc/stat: the steal time
// (cycles the hypervisor gave to other guests) and the total of user, nice,
// system, idle, iowait, irq, softirq and steal, in clock ticks.
func cpuTimes() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
	}
	steal, _ = strconv.ParseUint(f[8], 10, 64)
	return steal, total, true
}

// stealShare is the share of the host's CPU time the hypervisor gave to
// other guests since the counters s0, t0 were read. A high share marks a
// run the shared host slowed down.
func stealShare(s0, t0 uint64) (float64, bool) {
	s1, t1, ok := cpuTimes()
	if !ok || t1 <= t0 {
		return 0, false
	}
	return float64(s1-s0) / float64(t1-t0), true
}

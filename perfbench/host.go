package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostBlock is the provenance block printed with every result: the host
// the numbers come from, the source they measure, the workload seed, and
// the sample count behind each metric.
func hostBlock(r *run) map[string]any {
	samples := map[string]int{}
	for name, m := range r.metrics {
		samples[name] = m.N
	}
	return map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"trace":      r.trace,
		"smoke":      r.smoke,
		"seconds":    r.seconds,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     sourceCommit(),
		"samples":    samples,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

var commitMemo string

// sourceCommit names the measured source by a SHA-256 over the Go sources
// and go.mod files below the working directory, so two trees that differ
// only in uncommitted changes are told apart.
func sourceCommit() string {
	if commitMemo != "" {
		return commitMemo
	}
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write([]byte{0})
		h.Write(b)
	}
	commitMemo = "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
	return commitMemo
}

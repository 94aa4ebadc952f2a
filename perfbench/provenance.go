package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// provenance says what produced a result file, so that two files from
// different machines or sources are not compared unawares.
type provenance struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Commit is the checkout's git commit, or "unknown" outside a git
	// checkout; Source is a digest of the Go sources either way.
	Commit string `json:"commit"`
	Source string `json:"source"`
}

func currentProvenance(root string) provenance {
	return provenance{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     gitCommit(root),
		Source:     sourceDigest(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the checkout's .git directory without
// running git.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every go.mod and .go file under root, skipping
// hidden directories (the build cache lives in one).
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// machineDiffs lists the provenance fields that make two result files
// incomparable as a before/after pair.
func machineDiffs(a, b provenance) []string {
	var d []string
	if a.CPUModel != b.CPUModel {
		d = append(d, fmt.Sprintf("cpu_model %q vs %q", a.CPUModel, b.CPUModel))
	}
	if a.NumCPU != b.NumCPU {
		d = append(d, fmt.Sprintf("num_cpu %d vs %d", a.NumCPU, b.NumCPU))
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		d = append(d, fmt.Sprintf("gomaxprocs %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if a.GoVersion != b.GoVersion {
		d = append(d, fmt.Sprintf("go_version %s vs %s", a.GoVersion, b.GoVersion))
	}
	return d
}

// compare prints two result files metric by metric and flags a comparison
// across machines or workloads.
func compare(w io.Writer, oldPath, newPath string) error {
	load := func(path string) (*report, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	a, err := load(oldPath)
	if err != nil {
		return err
	}
	b, err := load(newPath)
	if err != nil {
		return err
	}
	if a.Workload != b.Workload {
		fmt.Fprintf(w, "WARNING: different workloads: %s vs %s\n", a.Workload, b.Workload)
	}
	if d := machineDiffs(a.Provenance, b.Provenance); len(d) > 0 {
		fmt.Fprintf(w, "WARNING: cross-machine comparison: %s\n", strings.Join(d, "; "))
	}
	if a.Digest != b.Digest {
		fmt.Fprintf(w, "NOTE: result digests differ (%s vs %s): the simulated behaviour changed\n", a.Digest, b.Digest)
	}
	old := map[string]metricValue{}
	for _, m := range a.Metrics {
		old[m.Name] = m
	}
	for _, m := range b.Metrics {
		o, ok := old[m.Name]
		if !ok {
			fmt.Fprintf(w, "%-32s %14s %14.6g %s (new)\n", m.Name, "-", m.Value, m.Unit)
			continue
		}
		change := "n/a"
		if o.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(m.Value/o.Value-1))
		}
		fmt.Fprintf(w, "%-32s %14.6g %14.6g %s %s\n", m.Name, o.Value, m.Value, m.Unit, change)
	}
	return nil
}

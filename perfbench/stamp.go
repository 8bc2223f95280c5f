package main

import (
	"bufio"
	"fmt"
	"hash"
	"hash/fnv"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp ties a result to its machine and its exact input: with it, any
// number can be traced back to the host that produced it and the bytes it
// measured.
type stamp struct {
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPU         string `json:"cpu"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"git_commit"`
	SourceFNV   string `json:"source_fnv1a"`
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	InputFNV    string `json:"input_fnv1a"`
	InputFrames uint64 `json:"input_frames"`
}

// hostStamp fills everything but the input fields.
func hostStamp(workload string, seed int64) stamp {
	return stamp{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		SourceFNV:  sourceDigest("."),
		Workload:   workload,
		Seed:       seed,
	}
}

// cpuModel returns the first "model name" line of /proc/cpuinfo, or the
// architecture where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit names the checked-out commit, or "unavailable" when the tree is
// not a git checkout (the source digest identifies the code either way).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unavailable"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest is an FNV-1a digest over every .go and go.mod file under
// root, in path order, skipping hidden directories (build output, VCS).
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if n := d.Name(); n != "." && strings.HasPrefix(n, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := fnv.New64a()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write(b)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// inputDigest accumulates the FNV-1a digest of a generated input.
type inputDigest struct {
	h      hash.Hash64
	frames uint64
}

func newInputDigest() *inputDigest { return &inputDigest{h: fnv.New64a()} }

func (d *inputDigest) add(tsNs uint64, frame []byte) {
	var ts [8]byte
	for i := range ts {
		ts[i] = byte(tsNs >> (8 * i))
	}
	d.h.Write(ts[:])
	d.h.Write(frame)
	d.frames++
}

func (d *inputDigest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

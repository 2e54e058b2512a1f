package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// envInfo records what the numbers of a run depend on besides the code.
type envInfo struct {
	Seed        int64  `json:"seed"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	CPU         string `json:"cpu"`
	DataFS      string `json:"data_fs"`
	FlushPolicy string `json:"flush_policy"`
}

func environment(seed int64, dataDir, flush string) envInfo {
	return envInfo{
		Seed:        seed,
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		CPU:         cpuModel(),
		DataFS:      filesystemOf(dataDir),
		FlushPolicy: flush,
	}
}

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

// filesystemOf returns the type of the filesystem holding dir, from the
// longest matching mount point in /proc/mounts.
func filesystemOf(dir string) string {
	if dir == "" {
		return "memory"
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fs := -1, "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, fs = len(mp), fields[2]
		}
	}
	return fs
}

package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// fingerprint identifies the host and build a result was measured on.
// Timings compare only between results with equal host fields (every
// field but Commit).
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	Commit     string `json:"commit"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOGC:       os.Getenv("GOGC"),
		Commit:     "unknown",
	}
	if fp.GOGC == "" {
		fp.GOGC = "100"
	}
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(rev))
		if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
			fp.Commit += "+dirty"
		}
	}
	return fp
}

// sameHost reports whether two fingerprints describe the same host setup.
func sameHost(a, b fingerprint) bool {
	a.Commit, b.Commit = "", ""
	return a == b
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

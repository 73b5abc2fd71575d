package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env records where and how a result file was measured. `bench
// -compare` refuses two files whose nproc, GOMAXPROCS, seed, seconds
// or scale differ.
type env struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	Kernel     string  `json:"kernel"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Scale      float64 `json:"scale"`
	TempFS     string  `json:"temp_fs"`
	Network    string  `json:"network"`
	Load       string  `json:"load"`
}

func captureEnv(cfg config) env {
	e := env{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    cfg.Clients,
		Kernel:     "unknown",
		Seed:       cfg.Seed,
		Seconds:    cfg.Seconds,
		Scale:      cfg.Scale,
		TempFS:     "unknown",
		Network:    "host loopback UDP/TCP for DNS, in-process netsim fabric for SMTP",
		Load:       fmt.Sprintf("closed loop, %d clients, load generator and system under test in one process", cfg.Clients),
	}
	// The driver's checkout is not a git repository; "unknown" is fine.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	if base := outBase(); os.MkdirAll(base, 0o755) == nil {
		e.TempFS = fsType(base)
	}
	return e
}

func (e env) render(w io.Writer) {
	fmt.Fprintf(w, "commit %s, %s, nproc %d, GOMAXPROCS %d, kernel %s\n",
		e.Commit, e.GoVersion, e.NProc, e.GOMAXPROCS, e.Kernel)
	fmt.Fprintf(w, "seed %d, sized for %d s at scale %g; artefacts on %s\n", e.Seed, e.Seconds, e.Scale, e.TempFS)
	fmt.Fprintf(w, "load: %s\nnetwork: %s\n", e.Load, e.Network)
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

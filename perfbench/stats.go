package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the median for q = 0.5). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func secs(d time.Duration) float64 { return d.Seconds() }

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resetPeakRSS collects garbage, returns freed memory to the kernel and
// clears the resident-set high-water mark, so the peak read later covers
// only what ran after the reset. It reports false where the kernel
// refuses; peakRSSMB then falls back to the whole-process peak.
func resetPeakRSS() bool {
	runtime.GC()
	debug.FreeOSMemory()
	return clearPeakRSS()
}

// clearPeakRSS clears the kernel's resident-set high-water mark for this
// process, leaving the heap as it is.
func clearPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB returns the process's peak resident memory in MB (2^20 bytes):
// VmHWM from /proc, or the getrusage peak where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
			if len(fields) >= 1 {
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return 0
}

// memSample is a point-in-time reading of the Go heap counters.
type memSample struct {
	alloc uint64
	gcs   uint32
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{alloc: ms.TotalAlloc, gcs: ms.NumGC}
}

// cpuTimes reads the machine-wide CPU time counters (jiffies) from
// /proc/stat: the total and the part stolen by the hypervisor for other
// guests. It reports zeros where /proc is unavailable.
func cpuTimes() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			continue
		}
		if i < 8 { // user … steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// startCPU is the machine's CPU counters at process start, so a result
// can say how much CPU other guests took while it ran.
var startCPU = func() [2]float64 { t, s := cpuTimes(); return [2]float64{t, s} }()

// describe records what a result was measured on and with.
func describe(cfg config, rep *report, elapsed time.Duration) map[string]any {
	host, _ := os.Hostname()
	total, steal := cpuTimes()
	return map[string]any{
		"cpu_steal_frac": ratio(steal-startCPU[1], total-startCPU[0]),
		"workload":       cfg.workload,
		"seed":           cfg.seed,
		"seconds":        cfg.seconds,
		"trace":          btoi(cfg.trace),
		"host":           host,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"commit":         commit(),
		"source_sha256":  sourceDigest(),
		"wall_s":         elapsed.Seconds(),
		"goos_goarch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// commit is the VCS revision the binary was built from, when the build
// could see one (a checkout without .git cannot); sourceDigest identifies
// the source either way.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go file and go.mod under the working
// directory (the checkout root), skipping build output, in path order.
func sourceDigest() string {
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

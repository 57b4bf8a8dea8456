package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is what one process spent on one phase, measured around the calls
// into the program: CPU from getrusage (user+sys, every thread of the
// process, GC workers included), wall from the monotonic clock, allocation
// and GC from runtime/metrics, the high-water RSS from /proc/self/status and
// the host's steal share from /proc/stat.
type usage struct {
	CPU          float64 `json:"cpu_s"`
	Wall         float64 `json:"wall_s"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	AllocObjects uint64  `json:"alloc_objects"`
	GCCycles     uint64  `json:"gc_cycles"`
	GCCPU        float64 `json:"gc_cpu_s"`
	PeakRSSKB    int64   `json:"peak_rss_kb"`
	Steal        float64 `json:"steal_frac"`
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

// probe is the state captured when a phase starts.
type probe struct {
	wall time.Time
	cpu  float64
	stat cpuStat
	rt   []metrics.Sample
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func rtUint(s metrics.Sample) uint64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}

func rtFloat(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

func startProbe() probe {
	// A GC before the phase starts it from the same heap state every time,
	// so the phase's GC work does not depend on what ran before it.
	runtime.GC()
	st, _ := readCPUStat()
	return probe{wall: time.Now(), cpu: processCPU(), stat: st, rt: readRuntime()}
}

func (p probe) stop() usage {
	wall := time.Since(p.wall).Seconds()
	cpu := processCPU() - p.cpu
	st, _ := readCPUStat()
	rt := readRuntime()
	u := usage{
		CPU:          cpu,
		Wall:         wall,
		AllocBytes:   rtUint(rt[0]) - rtUint(p.rt[0]),
		AllocObjects: rtUint(rt[1]) - rtUint(p.rt[1]),
		GCCycles:     rtUint(rt[2]) - rtUint(p.rt[2]),
		GCCPU:        rtFloat(rt[3]) - rtFloat(p.rt[3]),
		Steal:        stealFrac(p.stat, st),
	}
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		u.PeakRSSKB, _ = parseVmHWM(status)
	}
	return u
}

// processCPU is the user+sys CPU time of this process, in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageSeconds(ru)
}

// rusageSeconds adds a rusage's user and system times.
func rusageSeconds(ru syscall.Rusage) float64 {
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// parseVmHWM returns the VmHWM line of a /proc/<pid>/status file, in kB.
func parseVmHWM(status []byte) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			return strconv.ParseInt(f[1], 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuStat struct {
	Total, Steal uint64
}

func readCPUStat() (cpuStat, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}, err
	}
	return parseCPUStat(data)
}

// parseCPUStat reads the first line of /proc/stat: "cpu user nice system
// idle iowait irq softirq steal guest guest_nice". Guest time is already
// counted in user and nice, so the total stops at steal.
func parseCPUStat(data []byte) (cpuStat, error) {
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}, fmt.Errorf("malformed /proc/stat cpu line %q", line)
	}
	var st cpuStat
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return cpuStat{}, fmt.Errorf("/proc/stat field %d: %w", i, err)
		}
		st.Total += v
		if i == 8 {
			st.Steal = v
		}
	}
	return st, nil
}

// stealFrac is the share of the host's CPU ticks between two samples that
// the hypervisor gave to someone else.
func stealFrac(a, b cpuStat) float64 {
	if b.Total <= a.Total {
		return 0
	}
	return float64(b.Steal-a.Steal) / float64(b.Total-a.Total)
}

// hostInfo fingerprints the machine a run was measured on.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(rank(p, len(s)), 1)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples. The
// epsilon keeps float error from rounding an exact rank up (p99.9 of 10000
// is rank 9990, not 9991).
func rank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

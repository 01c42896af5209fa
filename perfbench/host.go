package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sample is a reading of the process counters one measurement window
// needs; sub turns two readings into the window's deltas.
type sample struct {
	at     int64         // run clock, ns
	cpu    time.Duration // user + system CPU of the process
	allocs uint64        // heap allocations, tiny ones included
	gcs    uint64        // completed GC cycles
	host   cpuStat       // host-wide CPU time, for the steal share
	// peakMB is the peak resident set since the previous sample, in
	// MiB; taking a sample restarts the peak.
	peakMB float64
}

var metricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func takeSample() sample {
	ms := make([]metrics.Sample, len(metricNames))
	for i, n := range metricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	// The /proc files were checked when the timed phase began
	// (checkProc); they do not go away while the process runs.
	host, _ := readSteal()
	peak, _ := peakRSSMB()
	_ = resetPeakRSS()
	return sample{
		at:     now(),
		cpu:    cpuTime(),
		allocs: ms[0].Value.Uint64() + ms[1].Value.Uint64(),
		gcs:    ms[2].Value.Uint64(),
		host:   host,
		peakMB: peak,
	}
}

func (s sample) sub(o sample) sample {
	return sample{at: s.at - o.at, cpu: s.cpu - o.cpu, allocs: s.allocs - o.allocs, gcs: s.gcs - o.gcs, peakMB: s.peakMB}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail for the calling process.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak resident set count from the
// current resident set, so that each window's peak is its own.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// checkProc checks the /proc files the measurement windows read, so a
// host without them fails the run instead of reporting zeros.
func checkProc() error {
	if _, err := readSteal(); err != nil {
		return err
	}
	if _, err := peakRSSMB(); err != nil {
		return err
	}
	return resetPeakRSS()
}

// peakRSSMB reads the process's peak resident set since the last reset,
// in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/self/status: no VmHWM line")
}

// cpuStat is the host-wide line of /proc/stat: busy+idle jiffies and
// the part the hypervisor stole.
type cpuStat struct{ Total, Steal uint64 }

func readSteal() (cpuStat, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) < 9 || fs[0] != "cpu" {
			continue
		}
		var st cpuStat
		// user nice system idle iowait irq softirq steal; guest time
		// is already inside user.
		for i := 1; i <= 8; i++ {
			v, err := strconv.ParseUint(fs[i], 10, 64)
			if err != nil {
				return cpuStat{}, fmt.Errorf("/proc/stat: %w", err)
			}
			st.Total += v
			if i == 8 {
				st.Steal = v
			}
		}
		return st, nil
	}
	return cpuStat{}, fmt.Errorf("/proc/stat: no cpu line")
}

// sub is the steal share of host CPU time between two readings, in
// percent.
func (s cpuStat) sub(o cpuStat) float64 {
	if s.Total <= o.Total {
		return 0
	}
	return 100 * float64(s.Steal-o.Steal) / float64(s.Total-o.Total)
}

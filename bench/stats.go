package main

import (
	"bufio"
	"math"
	"math/bits"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// epoch anchors mono: every timestamp in the benchmark is nanoseconds
// since process start on the monotonic clock.
var epoch = time.Now()

// mono reads the monotonic clock (one runtime nanotime call).
func mono() int64 { return int64(time.Since(epoch)) }

// hist is a log-linear histogram of non-negative int64 values (ns, or
// plain counts): 2^subBits sub-buckets per power of two. A quantile is
// read by linear interpolation inside its bucket, so it stays within
// 1/256 of the true value and moves continuously with the data (a
// bucket-bound readout would repeat exactly across runs). Recording is
// one atomic add, safe from any goroutine.
const (
	subBits     = 8
	subCount    = 1 << subBits
	histBuckets = (64 - subBits + 1) * subCount
)

type hist struct {
	n atomic.Int64
	b [histBuckets]atomic.Int64
}

func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - subBits
	return (shift+1)*subCount + int((uint64(v)>>shift)&(subCount-1))
}

// bucketRange returns bucket i's value range [lo, hi).
func bucketRange(i int) (lo, hi float64) {
	if i < subCount {
		return float64(i), float64(i + 1)
	}
	shift := i/subCount - 1
	base := float64(uint64(subCount+i%subCount) << shift)
	return base, base + float64(uint64(1)<<shift)
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.b[bucketOf(v)].Add(1)
	h.n.Add(1)
}

// merge folds o into h (not concurrently with recording into o).
func (h *hist) merge(o *hist) {
	for i := range o.b {
		if c := o.b[i].Load(); c != 0 {
			h.b[i].Add(c)
		}
	}
	h.n.Add(o.n.Load())
}

// quantile returns the q-quantile (0..1), interpolated inside the
// containing bucket; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum float64
	for i := range h.b {
		c := float64(h.b[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := bucketRange(i)
			return lo + (hi-lo)*(rank-cum)/c
		}
		cum += c
	}
	lo, _ := bucketRange(histBuckets - 1)
	return lo
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (exclusive
// method), which is how the spread of repeated runs is judged.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of the three cut points
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// rusageCPU returns user+sys CPU for who (RUSAGE_SELF or rusageThread).
func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusageThread is Linux's RUSAGE_THREAD: the calling OS thread only.
// The load generators run on locked threads, so this isolates their
// CPU from the system under test's.
const rusageThread = 1

func processCPU() time.Duration { return rusageCPU(syscall.RUSAGE_SELF) }
func threadCPU() time.Duration  { return rusageCPU(rusageThread) }

// residentMB reads the process's current resident set (VmRSS), in MiB.
func residentMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			if fields := strings.Fields(v); len(fields) > 0 {
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// watchRSS samples the resident set every 100 ms until until and
// delivers the largest reading (MiB). Callers return set-up's garbage
// to the OS first (debug.FreeOSMemory), so the peak belongs to the
// served load rather than to corpus collection and training.
func watchRSS(until int64) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		var peak float64
		for {
			peak = math.Max(peak, residentMB())
			if mono() >= until {
				out <- peak
				return
			}
			time.Sleep(100 * time.Millisecond)
		}
	}()
	return out
}

// gcSample reads the runtime's cumulative GC CPU, total CPU and live
// heap, for the proc.* layer metrics.
type gcSample struct {
	gcCPU, totalCPU float64
	heapBytes       float64
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return gcSample{gcCPU: val(0), totalCPU: val(1), heapBytes: val(2)}
}

// gcShare is the GC's share of runtime CPU between two samples.
func gcShare(a, b gcSample) float64 {
	total := b.totalCPU - a.totalCPU
	if total <= 0 {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / total
}

// ms and us convert nanosecond floats for reporting.
func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

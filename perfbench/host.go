package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// readMetric returns one uint64 runtime/metrics sample.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

const (
	allocBytes = "/gc/heap/allocs:bytes"
	liveBytes  = "/gc/heap/live:bytes" // live heap marked by the last GC
	gcCycles   = "/gc/cycles/total:gc-cycles"
)

// heapPeak polls the live heap, which changes only when a GC cycle
// ends, and keeps its largest value. Polling every 2 ms sees every cycle
// unless two end within one interval.
type heapPeak struct {
	stop chan struct{}
	done sync.WaitGroup
	max  uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			if v := readMetric(liveBytes); v > h.max {
				h.max = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends the poller and returns the peak in bytes.
func (h *heapPeak) Stop() uint64 {
	close(h.stop)
	h.done.Wait()
	return h.max
}

// cpuSeconds is the process's user plus system CPU time. Unlike wall
// time it leaves out the time a virtual machine's host runs something
// else on the CPU (steal), which on a shared 2-vCPU VM made the same
// run's wall time differ by 13% and ten seeds' by up to 40%.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// cpuMedian runs fn warm times untimed, then n times timed, and
// returns the median process CPU time of one call in seconds.
func cpuMedian(warm, n int, fn func() error) (float64, error) {
	var ts []float64
	for i := 0; i < warm+n; i++ {
		t0 := cpuSeconds()
		if err := fn(); err != nil {
			return 0, err
		}
		if i >= warm {
			ts = append(ts, cpuSeconds()-t0)
		}
	}
	return median(ts), nil
}

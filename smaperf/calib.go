package main

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// The host-speed yardstick. On a shared host the processor's speed drifts
// by up to a factor of two over minutes, and every timing drifts with it.
// The benchmark runs this fixed kernel between ops and scales the timings
// it reports to a host on which the kernel takes calibRefMs, so what it
// reports is the program's time relative to a computation that never
// changes. The kernel is the benchmark's own code: a change to the program
// cannot move it.
const (
	calibRefMs = 10.0
	calibEdge  = 64
	// calibShare is the share of each op's time spent calibrating after it
	// (at least one kernel call, at most calibMaxCalls).
	calibShare    = 0.04
	calibMaxCalls = 20
)

var (
	calibA, calibB = calibImages()
	// calibWant is the kernel's result: every call must reproduce it.
	calibWant = calibKernel(calibA, calibB, calibEdge)
)

// calibImages fills two calibEdge² images from a fixed linear
// congruential sequence, independent of the workload seed.
func calibImages() (a, b []float32) {
	a, b = make([]float32, calibEdge*calibEdge), make([]float32, calibEdge*calibEdge)
	x := uint32(2463534242)
	next := func() float32 {
		x = x*1664525 + 1013904223
		return float32(x>>8) / (1 << 24)
	}
	for i := range a {
		a[i] = next()
		b[i] = 0.5*a[i] + 0.5*next()
	}
	return a, b
}

// calibKernel is template matching of the kind the tracker does: for
// every interior pixel, the smallest sum of squared differences of a 9×9
// template over ±3 displacements, summed. It allocates nothing.
func calibKernel(a, b []float32, n int) float32 {
	var total float32
	for y := 8; y < n-8; y++ {
		for x := 8; x < n-8; x++ {
			best := float32(1e30)
			for dy := -3; dy <= 3; dy++ {
				for dx := -3; dx <= 3; dx++ {
					var s float32
					for ty := -4; ty <= 4; ty++ {
						ra := a[(y+ty)*n+x-4 : (y+ty)*n+x+5]
						rb := b[(y+ty+dy)*n+x+dx-4 : (y+ty+dy)*n+x+dx+5]
						for k := range ra {
							d := ra[k] - rb[k]
							s += d * d
						}
					}
					best = min(best, s)
				}
			}
			total += best
		}
	}
	return total
}

// calibrate runs the kernel once and returns its wall time in ms.
func calibrate() (float64, error) {
	t0 := time.Now()
	got := calibKernel(calibA, calibB, calibEdge)
	d := time.Since(t0)
	if got != calibWant {
		return 0, fmt.Errorf("calibration kernel returned %g, want %g", got, calibWant)
	}
	return ms(d), nil
}

// calibrateAfter runs the kernel on par goroutines at once, as many as an
// op keeps busy, in rounds for about calibShare of an op that took
// opTime, and returns the samples and the process CPU time they used.
func calibrateAfter(opTime time.Duration, par int) (samples []float64, cpu time.Duration, err error) {
	cpu0 := cpuTime()
	budget := calibShare * ms(opTime)
	var spent float64
	round := make([]float64, par)
	errs := make([]error, par)
	for len(samples) == 0 || (spent < budget && len(samples) < calibMaxCalls) {
		t0 := time.Now()
		var wg sync.WaitGroup
		for g := range round {
			wg.Add(1)
			go func() {
				defer wg.Done()
				round[g], errs[g] = calibrate()
			}()
		}
		wg.Wait()
		spent += ms(time.Since(t0))
		if err := errors.Join(errs...); err != nil {
			return nil, 0, err
		}
		samples = append(samples, round...)
	}
	return samples, cpuTime() - cpu0, nil
}

// hostScale is how much slower than the reference host the kernel ran:
// its mean time over calibRefMs (1 with no samples). The mean, not the
// median, so that time the host takes the processor away counts as it
// does for an op. Reported times are divided by it and rates multiplied.
func hostScale(samples []float64) float64 {
	if len(samples) == 0 {
		return 1
	}
	var sum float64
	for _, s := range samples {
		sum += s
	}
	return sum / float64(len(samples)) / calibRefMs
}

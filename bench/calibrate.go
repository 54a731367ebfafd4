package main

import (
	"math"
	"sort"
	"strconv"
	"time"
)

// The host this benchmark was built on is a 2-vCPU virtual machine whose
// speed drifted by up to a factor of two within minutes, and by 10-20%
// between consecutive runs, while nothing else ran in the guest; CPU time
// drifted with it.  Wall-clock and CPU-time metrics are therefore reported
// at a reference host speed.  Between every two steps of a measuring child,
// while the child sits idle, the runner times a fixed calibration loop,
// and it scales each step's times by the loop's slowdown against
// calibrationRef, raised to calibrationExponent.
//
// How closely a workload follows the loop changed with the hour: in one
// set of 40 runs the workloads' rates moved with the loop's time to powers
// between 0.49 and 0.93, in another by more than the loop.  Over both sets
// (120 runs) the exponent 0.8 gave the smallest worst spread of the four
// workloads.

// calibrationRef is the median time of one calibration sample on the
// reference host (Intel Xeon, 2 vCPUs, go1.24) at its usual speed.
const calibrationRef = 25 * time.Millisecond

// calibrationExponent is how strongly the workloads follow the loop.
const calibrationExponent = 0.8

// calibrationSamples is how many samples each calibration takes; their
// median damps a single sample's noise (about 10%).
const calibrationSamples = 8

var calibrationSink int

// calibrationSample times one run of the calibration loop: map inserts
// of formatted keys, small allocations and a sort, the mix of hashing,
// allocation and garbage collection the engines spend their time on.  It
// uses only the standard library, so no change to the repository's code
// can move it.
func calibrationSample() time.Duration {
	start := time.Now()
	m := make(map[string]int)
	sum := 0
	for i := 0; i < 40000; i++ {
		k := strconv.Itoa(i * 7919)
		m[k] = i
		b := make([]byte, 48)
		b[i%48] = byte(i)
		sum += int(b[5]) + len(k)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	calibrationSink = sum + len(keys[0])
	return time.Since(start)
}

// calibrate returns calibrationSamples sample times in seconds.
func calibrate() []float64 {
	out := make([]float64, calibrationSamples)
	for i := range out {
		out[i] = calibrationSample().Seconds()
	}
	return out
}

// slowdown is how much slower than at the reference speed the workloads
// ran, from the calibrations taken around one measurement.
func slowdown(calibrations ...[]float64) float64 {
	var all []float64
	for _, c := range calibrations {
		all = append(all, c...)
	}
	return math.Pow(median(all)/calibrationRef.Seconds(), calibrationExponent)
}

package main

import (
	"syscall"
	"time"
)

// wallNow reads the host clock. Every host-time measurement of the
// benchmark goes through it or cpuNow; simulated time stays the cycle
// counter.
func wallNow() time.Time {
	//lint:deterministic measuring host time is what this command is for; no simulation reads it
	return time.Now()
}

// cpuNow is the CPU time this process has used so far, user and system,
// over all its threads. The timed phases measure with it rather than
// with wallNow: on a shared virtual machine the hypervisor takes the
// CPU away for stretches that wall time counts and CPU time does not,
// and that stolen time varies several-fold from minute to minute.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

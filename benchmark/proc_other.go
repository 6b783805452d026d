//go:build !linux

package main

// The process envelope is read from Linux interfaces; elsewhere the
// benchmark still runs and reports these as unknown or zero.

func kernelRelease() string           { return "unknown" }
func fsType(string) string            { return "unknown" }
func peakRSSMB() float64              { return 0 }
func cpuSeconds() (user, sys float64) { return 0, 0 }

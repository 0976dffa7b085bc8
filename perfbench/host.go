package main

import (
	"runtime"
	"runtime/debug"

	"nessa/internal/tensor"
)

// hostStamp is the reproducibility record printed with every result.
type hostStamp struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOAMD64    string `json:"goamd64,omitempty"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	KernelTier string `json:"kernel_tier"`
	FastMath   bool   `json:"fast_math_active"`
	Commit     string `json:"commit"`
}

func stamp() hostStamp {
	h := hostStamp{
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		FastMath:   tensor.FastMathActive(),
		KernelTier: "bitexact",
		Commit:     "unknown",
	}
	if h.FastMath {
		h.KernelTier = "fast"
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range info.Settings {
			switch s.Key {
			case "GOAMD64":
				h.GOAMD64 = s.Value
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified && h.Commit != "unknown" {
			h.Commit += "-dirty"
		}
	}
	return h
}

package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// envInfo is the validity record every result carries: what hardware and
// toolchain produced the numbers, and from which source.
type envInfo struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git commit of the checkout when it is a git work
	// tree, else a digest of its Go sources and module files.
	Commit string `json:"commit"`
}

func collectEnv() envInfo {
	return envInfo{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     sourceID("."),
	}
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// sourceID identifies the source the benchmark was built from: the HEAD
// commit read from .git without running git, or, in a checkout that is not
// a work tree, "src-" plus a digest of every .go, go.mod and go.sum file.
func sourceID(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(name))); err == nil {
				return strings.TrimSpace(string(id))
			}
			return ref
		}
		return ref
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// heapPeak samples the bytes of heap objects the last garbage collection
// marked live, every few milliseconds, and keeps the largest value seen:
// the peak heap in use during a run. Counting garbage not yet collected as
// well would make the peak depend on when collections happen to run, which
// varied it by half between runs of the same code. runtime/metrics reads it
// without stopping the world.
type heapPeak struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapMetric}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak.Load() {
			h.peak.Store(v)
		}
	}
	read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB. It collects garbage
// first, so the heap live at the end of the run counts even when no
// collection has run since it last grew.
func (h *heapPeak) Stop() float64 {
	runtime.GC()
	close(h.stop)
	<-h.done
	return float64(h.peak.Load()) / (1 << 20)
}

// runtimeMem is a reading of the cumulative allocation counters.
type runtimeMem struct{ mallocs, bytes uint64 }

func (m *runtimeMem) read() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mallocs, m.bytes = ms.Mallocs, ms.TotalAlloc
}

// cpuTime returns the user plus system CPU time the process has used, over
// all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

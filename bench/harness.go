package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/pagedb"
)

// workload is one of the four inputs the benchmark runs. The harness owns
// the order of phases and everything that is measured the same way on each;
// a workload owns its engine, its clients and its oracle.
type workload interface {
	// load opens a fresh engine in dir and loads it: the program's set-up.
	// It returns the operations and user payload bytes of the load, which
	// stand in for the measured phase's where that phase writes nothing
	// (a workload whose measured phase always writes may return zeros).
	load(dir string) (ops, userBytes int64, err error)
	// warm runs the warm-up on the engine load left: the benchmark's own
	// cache filling, ordinary operations that are neither set-up nor measured.
	warm() error
	// run is the measured phase on the warmed engine: a fixed number of
	// operations, scaled by the -seconds argument. It returns the
	// operations attempted.
	run(rec *recorder) int64
	// counters reads the engine's public Stats and Obs registry.
	counters() (pagedb.Stats, obs.Snapshot)
	// check compares the live engine's whole state with the oracle.
	check(rec *recorder) state
	// killSafe says whether the engine's directory, copied while the engine
	// is open, must reopen to the live state. The DurCommit workload's
	// must. The DurSeal ones' need not: see "Known gaps" in README.md.
	killSafe() bool
	// reopen opens the image in dir and returns how long the open took and
	// how many transactions it replayed from the WAL tail; with verify it
	// also checks the reopened state against the oracle and the live state
	// before closing the image.
	reopen(dir string, verify bool, live state, rec *recorder) (time.Duration, uint64)
	// close shuts the live engine down; closing twice is harmless.
	close() error
}

// state summarises everything an engine holds: a digest of every key and
// value (or page) in order, and the user payload bytes that are live.
type state struct {
	digest  uint64
	payload int64
}

// recorder collects what the clients of one phase observed.
type recorder struct {
	tr *tracer // nil in untraced phases

	mu        sync.Mutex
	lat       []int64 // latency samples, ns
	userBytes int64   // payload bytes of acknowledged writes
	failed    int64
	byType    [5][]int64 // tpcc_txn: samples by transaction type, traced phases only
}

func (r *recorder) sample(ns int64) {
	r.mu.Lock()
	r.lat = append(r.lat, ns)
	r.mu.Unlock()
}

// fail counts one failed operation or check; the first few are explained on
// standard error.
func (r *recorder) fail(format string, args ...any) {
	r.mu.Lock()
	r.failed++
	n := r.failed
	r.mu.Unlock()
	if n <= 5 {
		fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
	}
}

// digester folds keys and values, in the order given, into one number.
type digester struct {
	h       hash.Hash64
	payload int64
	buf     [8]byte
}

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) add(key uint64, value []byte) {
	binary.LittleEndian.PutUint64(d.buf[:], key)
	d.h.Write(d.buf[:])
	d.h.Write(value)
	d.payload += 8 + int64(len(value))
}

func (d *digester) state() state { return state{digest: d.h.Sum64(), payload: d.payload} }

// procCounters is the process's side of a phase boundary.
type procCounters struct {
	wchar uint64 // bytes this process handed to write syscalls (/proc/self/io)
	mem   runtime.MemStats
	ru    syscall.Rusage
}

func readProc() (procCounters, error) {
	var p procCounters
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return p, fmt.Errorf("disk_bytes_per_user_byte needs /proc/self/io: %w", err)
	}
	found := false
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar: "); ok {
			if p.wchar, err = strconv.ParseUint(v, 10, 64); err != nil {
				return p, fmt.Errorf("/proc/self/io wchar: %w", err)
			}
			found = true
		}
	}
	if !found {
		return p, fmt.Errorf("/proc/self/io has no wchar line")
	}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &p.ru); err != nil {
		return p, fmt.Errorf("getrusage: %w", err)
	}
	runtime.ReadMemStats(&p.mem)
	return p, nil
}

// fsyncs is the number of segment and WAL fsyncs an engine has issued: the
// sample counts of its two fsync latency series.
func fsyncs(s obs.Snapshot) uint64 {
	return s.Histograms["store.fsync.ns"].Count + s.Histograms["wal.fsync.ns"].Count
}

// waitCleanerIdle returns once the background cleaner reads idle on two
// consecutive polls: a directory copied while the cleaner recycles a victim
// is a torn snapshot, not a crash image. Foreground cleaning (no cleaner
// goroutine) is idle by construction.
func waitCleanerIdle(w workload) error {
	idle := 0
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		st, _ := w.counters()
		if !st.Store.Background || st.Store.Cleaner.State == "idle" {
			if idle++; idle == 2 {
				return nil
			}
		} else {
			idle = 0
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("background cleaner did not go idle within 30 s")
}

// dirBytes is the size of every regular file under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// copyDir copies the regular files under src to a new directory dst. When
// the engine that owns src is still open, with its clients stopped and its
// cleaner idle, that is the image a kill of the process would leave. The
// copy is read through the operating system's cache, so it holds writes the
// engine never fsynced: it proves kill-safety, not power-loss safety.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

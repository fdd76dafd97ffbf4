// Quickstart: open a durable log-structured page store with background
// cleaning and commit-level durability, write pages in atomic batches
// (group commit coalesces the fsyncs), watch the MDC cleaner reclaim space
// off the write path, and recover after a restart.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"os"

	"repro/internal/core"
	"repro/internal/store"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "lsstore-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	opts := store.Options{
		Dir:          dir,
		PageSize:     4096,
		SegmentPages: 64,
		MaxSegments:  64, // ~16 MB capacity
		// Algorithm defaults to core.MDC().
		// Cleaning runs in a background goroutine driven by free-pool
		// watermarks; writes are only paced if free space nears
		// exhaustion. Set false to clean synchronously inside writes.
		BackgroundClean: true,
		// Every commit returns durable: batches pay one coalesced group
		// fsync instead of one per page. DurSeal syncs only at segment
		// seals; DurNone (the default) never syncs.
		Durability: core.DurCommit,
	}
	st, err := store.Open(opts)
	if err != nil {
		log.Fatal(err)
	}

	// Fill to ~75% with live pages, then update a hot subset so the
	// cleaner has work: pages are never updated in place, so every rewrite
	// leaves a garbage version behind for the cleaner. Updates go through
	// the batch API: each Apply is atomic (all-or-nothing, even across a
	// crash at DurCommit) and amortizes the lock, admission and fsync over
	// the whole batch.
	const livePages = 3000
	page := make([]byte, 4096)
	b := store.NewBatch()
	for id := uint32(0); id < livePages; id++ {
		fillPage(page, id, 0)
		b.Write(id, page) // the batch copies the page; the buffer is reusable
		if b.Len() == 128 || id == livePages-1 {
			if err := st.Apply(b); err != nil {
				log.Fatalf("preload batch: %v", err)
			}
			b.Reset()
		}
	}
	r := rand.New(rand.NewPCG(1, 2))
	for i := 1; i <= 20000; i++ {
		id := uint32(r.IntN(livePages / 10)) // hot 10%
		fillPage(page, id, i)
		b.Write(id, page)
		if b.Len() == 64 {
			if err := st.Apply(b); err != nil {
				log.Fatalf("update batch: %v", err)
			}
			b.Reset()
		}
	}
	if err := st.Apply(b); err != nil {
		log.Fatalf("final batch: %v", err)
	}

	s := st.Stats()
	fmt.Printf("live pages       %d of %d capacity (fill %.2f)\n", s.LivePages, s.CapacityPages, s.FillFactor)
	fmt.Printf("user writes      %d in %d batches\n", s.UserWrites, s.BatchesApplied)
	fmt.Printf("durability       %s: %d commits served by %d group fsync rounds\n",
		s.Durability, s.Commits, s.FsyncRounds)
	fmt.Printf("GC relocations   %d (write amplification %.3f)\n", s.GCWrites, s.WriteAmp)
	fmt.Printf("segments cleaned %d at mean emptiness %.3f\n", s.SegmentsCleaned, s.MeanEAtClean)
	fmt.Printf("background clean %d cycles, %d segments reclaimed, %.1f MB relocated, writers stalled %v\n",
		s.Cleaner.Cycles, s.Cleaner.SegmentsReclaimed,
		float64(s.Cleaner.BytesRelocated)/1e6, s.Cleaner.WriterStallTime)

	if err := st.Close(); err != nil {
		log.Fatal(err)
	}

	// Reopen: recovery rebuilds the page table by scanning the segments
	// and keeping each page's highest-sequence record.
	st2, err := store.Open(opts)
	if err != nil {
		log.Fatalf("recovery: %v", err)
	}
	defer st2.Close()
	buf := make([]byte, 4096)
	if err := st2.ReadPage(7, buf); err != nil {
		log.Fatalf("read after recovery: %v", err)
	}
	fmt.Printf("recovered        %d live pages; page 7 readable, checksum verified\n",
		st2.Stats().LivePages)
}

// fillPage stamps a recognizable per-version pattern.
func fillPage(p []byte, id uint32, version int) {
	for i := range p {
		p[i] = byte(int(id) + version + i)
	}
}

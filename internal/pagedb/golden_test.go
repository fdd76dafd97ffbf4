package pagedb

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// goldenSegments is the SHA-256 over every segment file (name, then
// contents, in name order) the seeded run below leaves behind: it pins the
// commit batches byte for byte — same members, same order on the log (the
// store's MDC appends a batch coldest first), same tombstones and terminal
// meta page. Foreground cleaning and one pool shard make the run
// deterministic; GOLDEN_PRINT=1 prints the row.
//
// Re-recorded once (three identical runs), when the store's page records
// became variable-size (format LSSEG003) and the checkpoint began writing
// each node at its encoded length: every record's framing changed, so the
// hash recorded at dede7ff could not survive. The store shrank from 128 to
// 76 segments in the same edit — with pages at their used length the old
// geometry never ran low on space, and a run that never cleans pins less;
// at 76 it cleans the 16 segments it used to. Commits and pages committed
// are what they were.
//
// Re-recorded again (three identical runs) when the store's header stamp
// became one rule for every durability level: under DurCommit it is now at
// least the group-commit point, not equal to it. Of the run's 76 segment files
// 72 are byte-identical to those the previous hash (d995d5c6…) covered; 4
// differ only in header bytes 24–31, the watermark (591 before, 602–634 now);
// the checkpoint and the WAL are identical, as are cleaned, commits and pages.
//
// Re-recorded again (three identical runs) when the free list stopped being
// persisted (metadata format 4): every meta image is 8 header bytes shorter
// (no free-id count, no overflow-page count) and carries no free ids — 83
// bytes at the first two checkpoints (95 and 91 before), 62 at the last two
// (254 before, a page filled with free ids). The third checkpoint no longer
// writes 3 overflow images (pages committed 855 → 852), and Close no longer
// writes 2 and tombstones a third. Each checkpoint writes the same node
// images and tombstones as before; cleaned and commits are unchanged.
//
// Re-recorded again (three identical runs) when Open stopped creating a file
// for every segment and a released victim began to be truncated: the 12
// segments the run never opens (000000–000011) have no file, where they had
// empty ones, and 000075, free at Close, is empty, where it held 2,118 bytes
// of dead records. The other 63 files are byte-identical; cleaned, commits and
// pages are unchanged.
//
// Re-recorded again (three identical runs) when the store began appending an
// Apply's records coldest first under MDC, in ascending seq of each page's
// current version, where it had kept the checkpoint's ascending-id order: the
// same records land in other places, so cleaning moves other bytes; cleaned,
// commits and pages are unchanged.
const (
	goldenSegments = "5f8e27834c2546bceae0de399d2e2dac435b03c229b72b2a0a41a2c22185044a"
	goldenCleaned  = 16
	goldenCommits  = 3
	goldenPages    = 852
)

// goldenRun drives a seeded single-threaded mix through every way a page
// reaches a checkpoint: transactions and direct tree writes over a cache far
// smaller than the trees (dirty evictions, re-faults, re-dirtying), deletes
// that merge and free pages, a dropped tree whose freed ids outnumber what
// one metadata page could list, three explicit checkpoints and the one Close
// takes.
func goldenRun(t *testing.T, dir string) (string, Stats) {
	t.Helper()
	db, err := Open(Options{
		Store: store.Options{
			Dir:          dir,
			PageSize:     256,
			SegmentPages: 8,
			MaxSegments:  76,
			Durability:   core.DurCommit,
		},
		CachePages:  16,
		CacheShards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20210416))
	value := func() []byte {
		v := make([]byte, 8+rng.Intn(40))
		rng.Read(v)
		return v
	}
	for round := 0; round < 4; round++ {
		if round == 0 {
			tmp, err := db.Tree("tmp")
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < 900; k++ {
				if err := tmp.Put(k, value()); err != nil {
					t.Fatal(err)
				}
			}
		}
		if round == 2 {
			if err := db.DropTree("tmp"); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 400; i++ {
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for n := 1 + rng.Intn(4); n > 0; n-- {
				tree := "a"
				if rng.Intn(3) == 0 {
					tree = "b"
				}
				key := uint64(rng.Intn(700))
				if rng.Intn(5) == 0 {
					_, err = tx.Delete(tree, key)
				} else {
					err = tx.Put(tree, key, value())
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if round < 3 {
			if err := db.Commit(); err != nil {
				t.Fatalf("checkpoint %d: %v", round, err)
			}
		}
	}
	st := db.Stats()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(f), len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), st
}

func TestGoldenCheckpointBatches(t *testing.T) {
	sum, st := goldenRun(t, t.TempDir())
	if os.Getenv("GOLDEN_PRINT") != "" {
		t.Logf("segments %s cleaned %d commits %d pages %d staged-evictions %d",
			sum, st.Store.SegmentsCleaned, st.Commits, st.CommittedPages, st.StagedEvictions)
	}
	if st.StagedEvictions == 0 || st.Store.SegmentsCleaned == 0 {
		t.Fatalf("run exercised nothing: %d dirty evictions, %d segments cleaned", st.StagedEvictions, st.Store.SegmentsCleaned)
	}
	if st.Store.SegmentsCleaned != goldenCleaned || st.Commits != goldenCommits || st.CommittedPages != goldenPages {
		t.Errorf("cleaned %d commits %d pages %d, recorded %d %d %d",
			st.Store.SegmentsCleaned, st.Commits, st.CommittedPages, goldenCleaned, goldenCommits, goldenPages)
	}
	if sum != goldenSegments {
		t.Errorf("segment files hash %s, recorded %s", sum, goldenSegments)
	}
}

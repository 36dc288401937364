package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/geom"
)

// fillStore appends n pages with recognizable contents: page i holds one
// element of ID i.
func fillStore(t *testing.T, st Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := st.Append([]geom.Element{{ID: uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMemStoreConcurrentReaders(t *testing.T) {
	st := NewMemStore(512)
	const pages = 64
	fillStore(t, st, pages)

	const workers = 8
	readers := OpenReaders(st, workers)
	if len(readers) != workers {
		t.Fatalf("got %d readers, want %d", len(readers), workers)
	}

	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(r Store, w int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				for i := 0; i < pages; i++ {
					p := (i + w) % pages
					page, err := r.View(PageID(p))
					if err != nil {
						errc <- err
						return
					}
					if len(page) != 1 || page[0].ID != uint64(p) {
						errc <- fmt.Errorf("reader returned wrong contents for page %d", p)
						return
					}
				}
			}
		}(readers[w], w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Per-reader counters: every worker did 4*pages reads of page-size bytes.
	for i, r := range readers {
		s := r.Stats()
		if s.Reads != 4*pages {
			t.Fatalf("reader %d counted %d reads, want %d", i, s.Reads, 4*pages)
		}
		if s.BytesRead != uint64(4*pages*st.PageSize()) {
			t.Fatalf("reader %d counted %d bytes", i, s.BytesRead)
		}
		if s.Writes != 0 {
			t.Fatalf("reader %d counted writes", i)
		}
	}

	// Readers are read-only.
	if _, err := readers[0].Append(nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Append on reader: %v", err)
	}
	if got := readers[0].NumPages(); got != pages {
		t.Fatalf("reader NumPages = %d, want %d", got, pages)
	}

	// Out-of-range reads still fail like the parent store.
	if _, err := readers[0].View(PageID(pages)); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("out-of-range read: %v", err)
	}
}

func TestReaderSequentialClassification(t *testing.T) {
	// Each reader classifies its own stream: a full sequential scan is one
	// random (first) read plus sequential reads, regardless of interleaving
	// with other readers.
	st := NewMemStore(256)
	fillStore(t, st, 32)
	readers := OpenReaders(st, 2)
	for i := 0; i < 32; i++ {
		if _, err := readers[0].View(PageID(i)); err != nil {
			t.Fatal(err)
		}
		// Reader 1 reads the same pages backwards, interleaved.
		if _, err := readers[1].View(PageID(31 - i)); err != nil {
			t.Fatal(err)
		}
	}
	s0, s1 := readers[0].Stats(), readers[1].Stats()
	if s0.SeqReads != 31 || s0.RandReads != 1 {
		t.Fatalf("forward scan classified seq=%d rand=%d", s0.SeqReads, s0.RandReads)
	}
	if s1.SeqReads != 0 || s1.RandReads != 32 {
		t.Fatalf("backward scan classified seq=%d rand=%d", s1.SeqReads, s1.RandReads)
	}
}

package storage

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"testing"
)

// fillStore allocates n pages with recognizable contents.
func fillStore(t *testing.T, st Store, n int) {
	t.Helper()
	buf := make([]byte, st.PageSize())
	if _, err := st.Alloc(n); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := range buf {
			buf[j] = byte(i)
		}
		if err := st.Write(PageID(i), buf); err != nil {
			t.Fatal(err)
		}
	}
}

func testConcurrentReaders(t *testing.T, st Store) {
	t.Helper()
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
			buf := make([]byte, r.PageSize())
			want := make([]byte, r.PageSize())
			for rep := 0; rep < 4; rep++ {
				for i := 0; i < pages; i++ {
					p := (i + w) % pages
					if err := r.Read(PageID(p), buf); err != nil {
						errc <- err
						return
					}
					for j := range want {
						want[j] = byte(p)
					}
					if !bytes.Equal(buf, want) {
						errc <- errors.New("reader returned wrong page contents")
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
	if _, err := readers[0].Alloc(1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Alloc on reader: %v", err)
	}
	if err := readers[0].Write(0, make([]byte, st.PageSize())); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Write on reader: %v", err)
	}
	if got := readers[0].NumPages(); got != pages {
		t.Fatalf("reader NumPages = %d, want %d", got, pages)
	}

	// Out-of-range and wrong-size reads still fail like the parent store.
	buf := make([]byte, st.PageSize())
	if err := readers[0].Read(PageID(pages), buf); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("out-of-range read: %v", err)
	}
	if err := readers[0].Read(0, buf[:1]); !errors.Is(err, ErrPageSize) {
		t.Fatalf("short-buffer read: %v", err)
	}
}

func TestMemStoreConcurrentReaders(t *testing.T) {
	testConcurrentReaders(t, NewMemStore(512))
}

func TestFileStoreConcurrentReaders(t *testing.T) {
	fs, err := NewFileStore(filepath.Join(t.TempDir(), "pages.db"), 512)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	testConcurrentReaders(t, fs)
}

func TestReaderSequentialClassification(t *testing.T) {
	// Each reader classifies its own stream: a full sequential scan is one
	// random (first) read plus sequential reads, regardless of interleaving
	// with other readers.
	st := NewMemStore(256)
	fillStore(t, st, 32)
	readers := OpenReaders(st, 2)
	buf0 := make([]byte, 256)
	buf1 := make([]byte, 256)
	for i := 0; i < 32; i++ {
		if err := readers[0].Read(PageID(i), buf0); err != nil {
			t.Fatal(err)
		}
		// Reader 1 reads the same pages backwards, interleaved.
		if err := readers[1].Read(PageID(31-i), buf1); err != nil {
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

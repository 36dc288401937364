package storage

import (
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geom"
)

func TestMemStoreRoundTrip(t *testing.T) {
	st := NewMemStore(512)
	id, err := st.Alloc(3)
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 || st.NumPages() != 3 {
		t.Fatalf("alloc: id=%d pages=%d", id, st.NumPages())
	}
	page := make([]byte, 512)
	for i := range page {
		page[i] = byte(i)
	}
	if err := st.Write(1, page); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if err := st.Read(1, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("byte %d mismatch: %d", i, got[i])
		}
	}
	// Unwritten page reads as zeros.
	if err := st.Read(2, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != 0 {
			t.Fatalf("fresh page should be zeroed at byte %d", i)
		}
	}
}

func TestMemStoreErrors(t *testing.T) {
	st := NewMemStore(256)
	if _, err := st.Alloc(-1); err == nil {
		t.Fatal("negative alloc should fail")
	}
	buf := make([]byte, 256)
	if err := st.Read(0, buf); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("read unallocated: %v", err)
	}
	if err := st.Write(0, buf); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("write unallocated: %v", err)
	}
	if _, err := st.Alloc(1); err != nil {
		t.Fatal(err)
	}
	if err := st.Read(0, make([]byte, 100)); !errors.Is(err, ErrPageSize) {
		t.Fatalf("short buffer: %v", err)
	}
	if err := st.Write(0, make([]byte, 300)); !errors.Is(err, ErrPageSize) {
		t.Fatalf("long buffer: %v", err)
	}
}

func TestStatsSequentialVsRandom(t *testing.T) {
	st := NewMemStore(128)
	if _, err := st.Alloc(10); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	// Sequential scan 0..9: first read is random (initial seek), rest sequential.
	for i := 0; i < 10; i++ {
		if err := st.Read(PageID(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	s := st.Stats()
	if s.Reads != 10 || s.RandReads != 1 || s.SeqReads != 9 {
		t.Fatalf("sequential scan stats: %+v", s)
	}
	if s.BytesRead != 10*128 {
		t.Fatalf("bytes read = %d", s.BytesRead)
	}

	before := s
	// Backwards scan: every read is a seek.
	for i := 9; i >= 0; i-- {
		if err := st.Read(PageID(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	s = st.Stats().Sub(before)
	if s.RandReads != 10 || s.SeqReads != 0 {
		t.Fatalf("backward scan stats: %+v", s)
	}
}

func TestStatsWriteClassification(t *testing.T) {
	st := NewMemStore(128)
	if _, err := st.Alloc(4); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	order := []PageID{0, 1, 3, 2}
	for _, id := range order {
		if err := st.Write(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	s := st.Stats()
	// 0 rand, 1 seq, 3 rand, 2 rand.
	if s.Writes != 4 || s.SeqWrites != 1 || s.RandWrites != 3 {
		t.Fatalf("write stats: %+v", s)
	}
}

func TestStatsAddSub(t *testing.T) {
	a := Stats{Reads: 10, SeqReads: 4, RandReads: 6, BytesRead: 100}
	b := Stats{Reads: 3, SeqReads: 1, RandReads: 2, BytesRead: 30}
	sum := a.Add(b)
	if sum.Reads != 13 || sum.BytesRead != 130 {
		t.Fatalf("Add: %+v", sum)
	}
	diff := sum.Sub(b)
	if diff != a {
		t.Fatalf("Sub: %+v != %+v", diff, a)
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	st, err := NewFileStore(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Alloc(5); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 256)
	for i := range page {
		page[i] = 0xAB
	}
	if err := st.Write(4, page); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 256)
	if err := st.Read(4, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAB || got[255] != 0xAB {
		t.Fatalf("file round trip failed: %x %x", got[0], got[255])
	}
	if err := st.Read(5, got); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("out of range read: %v", err)
	}
	if st.NumPages() != 5 {
		t.Fatalf("NumPages = %d", st.NumPages())
	}
}

func TestDiskModel(t *testing.T) {
	m := DiskModel{Seek: 10 * time.Millisecond, TransferBytesPerSec: 1 << 20} // 1 MB/s
	s := Stats{RandReads: 2, BytesRead: 1 << 20, RandWrites: 1, BytesWritten: 2 << 20}
	if got := m.ReadTime(s); got != 20*time.Millisecond+time.Second {
		t.Fatalf("ReadTime = %v", got)
	}
	if got := m.WriteTime(s); got != 10*time.Millisecond+2*time.Second {
		t.Fatalf("WriteTime = %v", got)
	}
	if got := m.IOTime(s); got != m.ReadTime(s)+m.WriteTime(s) {
		t.Fatalf("IOTime = %v", got)
	}
	// Default model should be sane: sequential throughput dominates seeks
	// for big streaming reads.
	def := DefaultDiskModel()
	stream := Stats{RandReads: 1, SeqReads: 9999, Reads: 10000, BytesRead: 10000 * 8192}
	if def.ReadTime(stream) > time.Second {
		t.Fatalf("streaming 80MB should take well under a second, got %v", def.ReadTime(stream))
	}
}

func TestElementPageRoundTrip(t *testing.T) {
	buf := make([]byte, DefaultPageSize)
	elems := randomElements(rand.New(rand.NewSource(7)), ElementsPerPage(DefaultPageSize))
	if err := EncodeElementsPage(buf, elems); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeElementsPage(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(elems) {
		t.Fatalf("decoded %d of %d elements", len(got), len(elems))
	}
	for i := range got {
		if got[i] != elems[i] {
			t.Fatalf("element %d mismatch: %+v vs %+v", i, got[i], elems[i])
		}
	}
}

func TestElementPageOverflow(t *testing.T) {
	buf := make([]byte, 256)
	tooMany := randomElements(rand.New(rand.NewSource(1)), ElementsPerPage(256)+1)
	if err := EncodeElementsPage(buf, tooMany); err == nil {
		t.Fatal("expected overflow error")
	}
}

func TestPropElementPageRoundTrip(t *testing.T) {
	buf := make([]byte, 1024)
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw) % (ElementsPerPage(1024) + 1)
		elems := randomElements(r, n)
		if err := EncodeElementsPage(buf, elems); err != nil {
			return false
		}
		got, err := DecodeElementsPage(nil, buf)
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != elems[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randomElements(r *rand.Rand, n int) []geom.Element {
	elems := make([]geom.Element, n)
	for i := range elems {
		c := geom.Point{r.Float64() * 1000, r.Float64() * 1000, r.Float64() * 1000}
		h := geom.Point{r.Float64(), r.Float64(), r.Float64()}
		elems[i] = geom.Element{ID: r.Uint64(), Box: geom.BoxAround(c, h)}
	}
	return elems
}

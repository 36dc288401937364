package storage

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geom"
)

func TestMemStoreRoundTrip(t *testing.T) {
	st := NewMemStore(512)
	pages := [][]geom.Element{
		randomElements(rand.New(rand.NewSource(1)), 3),
		nil, // a page that only occupies space
		randomElements(rand.New(rand.NewSource(2)), ElementsPerPage(512)),
	}
	for i, p := range pages {
		id, err := st.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if id != PageID(i) {
			t.Fatalf("page %d appended as %d", i, id)
		}
	}
	if st.NumPages() != len(pages) {
		t.Fatalf("NumPages = %d, want %d", st.NumPages(), len(pages))
	}
	for i, p := range pages {
		got, err := st.View(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, p) {
			t.Fatalf("page %d reads back %d elements, want %d", i, len(got), len(p))
		}
	}
}

func TestMemStoreErrors(t *testing.T) {
	st := NewMemStore(256)
	if _, err := st.View(0); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("view of an empty store: %v", err)
	}
	if _, err := st.Append(randomElements(rand.New(rand.NewSource(3)), ElementsPerPage(256)+1)); err == nil {
		t.Fatal("a page of more elements than fit was accepted")
	}
	if st.NumPages() != 0 || st.Stats() != (Stats{}) {
		t.Fatalf("a refused append left %d pages and counted %v", st.NumPages(), st.Stats())
	}
	if _, err := st.Append(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := st.View(1); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("view past the end: %v", err)
	}
}

func TestStatsSequentialVsRandom(t *testing.T) {
	st := NewMemStore(128)
	fillStore(t, st, 10)
	// Sequential scan 0..9: first read is random (initial seek), rest sequential.
	for i := 0; i < 10; i++ {
		if _, err := st.View(PageID(i)); err != nil {
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
		if _, err := st.View(PageID(i)); err != nil {
			t.Fatal(err)
		}
	}
	s = st.Stats().Sub(before)
	if s.RandReads != 10 || s.SeqReads != 0 {
		t.Fatalf("backward scan stats: %+v", s)
	}
}

// TestStatsWriteClassification: appends land on consecutive pages, so the
// first is a seek and the rest stream; every page costs its full size,
// however few elements it holds.
func TestStatsWriteClassification(t *testing.T) {
	st := NewMemStore(128)
	for _, n := range []int{2, 0, 1, 2} {
		if _, err := st.Append(randomElements(rand.New(rand.NewSource(int64(n))), n)); err != nil {
			t.Fatal(err)
		}
	}
	s := st.Stats()
	if s.Writes != 4 || s.SeqWrites != 3 || s.RandWrites != 1 || s.BytesWritten != 4*128 {
		t.Fatalf("write stats: %+v", s)
	}
	if s.Reads != 0 {
		t.Fatalf("appends counted reads: %+v", s)
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

// TestElementPageRoundTrip: a full default-size page reads back element for
// element, bit for bit.
func TestElementPageRoundTrip(t *testing.T) {
	st := NewMemStore(DefaultPageSize)
	elems := randomElements(rand.New(rand.NewSource(7)), ElementsPerPage(DefaultPageSize))
	id, err := st.Append(elems)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(elems) {
		t.Fatalf("read %d of %d elements", len(got), len(elems))
	}
	for i := range got {
		if got[i] != elems[i] {
			t.Fatalf("element %d mismatch: %+v vs %+v", i, got[i], elems[i])
		}
	}
}

// TestElementPageOverflow: a page holds ElementsPerPage elements and no more,
// at any page size.
func TestElementPageOverflow(t *testing.T) {
	for _, size := range []int{256, 1024, DefaultPageSize} {
		st := NewMemStore(size)
		per := ElementsPerPage(size)
		elems := randomElements(rand.New(rand.NewSource(1)), per+1)
		if _, err := st.Append(elems[:per]); err != nil {
			t.Fatalf("page size %d: a full page was refused: %v", size, err)
		}
		if _, err := st.Append(elems); err == nil {
			t.Fatalf("page size %d: %d elements accepted, capacity %d", size, per+1, per)
		}
	}
}

// TestPropElementPageRoundTrip: any run of pages of any fill reads back as
// written, each access counted as one page.
func TestPropElementPageRoundTrip(t *testing.T) {
	f := func(seed int64, fills []uint8) bool {
		r := rand.New(rand.NewSource(seed))
		st := NewMemStore(1024)
		var want [][]geom.Element
		for _, raw := range fills {
			elems := randomElements(r, int(raw)%(ElementsPerPage(1024)+1))
			if _, err := st.Append(elems); err != nil {
				return false
			}
			want = append(want, elems)
		}
		for i, w := range want {
			got, err := st.View(PageID(i))
			if err != nil || !slices.Equal(got, w) {
				return false
			}
		}
		s := st.Stats()
		return s.Writes == uint64(len(want)) && s.Reads == uint64(len(want)) &&
			s.BytesWritten == uint64(len(want))*1024 && s.BytesRead == s.BytesWritten
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

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/geom"
	"repro/transformers"
)

// decode is decodeBatch with the pieces concatenated, for the tests that
// compare decoded elements as one slice.
func (d *ingestDecoder) decode(meta any) ([]transformers.Element, error) {
	b, err := d.decodeBatch(meta)
	if err != nil {
		return nil, err
	}
	return slices.Concat(b.elems.Chunks()...), nil
}

// sameBox compares bit for bit, so that -0 is not 0.
func sameBox(a, b transformers.Box) bool {
	for d := range a.Lo {
		if math.Float64bits(a.Lo[d]) != math.Float64bits(b.Lo[d]) || math.Float64bits(a.Hi[d]) != math.Float64bits(b.Hi[d]) {
			return false
		}
	}
	return true
}

// blockBodyCheck decodes body serially and through blocks of each size,
// every reader reader makes, and fails unless the two agree: the same meta
// and the same elements bit for bit, or the same error — kind, text and
// offset, or the reader's own — and a batch whose bounds are geom.MBBOf of its elements, bit for
// bit. It returns the serial result.
func blockBodyCheck(t *testing.T, name string, body []byte, reader func() io.Reader, blocks ...int) ([]transformers.Element, error) {
	t.Helper()
	var wantReq datasetRequest
	serial := &ingestDecoder{r: reader(), buf: make([]byte, maxIngestToken)}
	want, wantErr := serial.decode(&wantReq)
	for _, block := range blocks {
		var req datasetRequest
		d := &ingestDecoder{r: reader(), buf: make([]byte, maxIngestToken), block: block}
		b, err := d.decodeBatch(&req)
		got := slices.Concat(b.elems.Chunks()...)
		if !(err == wantErr || sameError(err, wantErr)) || req != wantReq || !sameElements(got, want) {
			t.Fatalf("%s, %d-byte blocks: %.80q\nblocks: %d elements, %v\nserial: %d elements, %v", name, block, body, len(got), err, len(want), wantErr)
		}
		if err == nil && !sameBox(b.mbb, geom.MBBOf(got)) {
			t.Fatalf("%s, %d-byte blocks: bounds %v, the elements' are %v", name, block, b.mbb, geom.MBBOf(got))
		}
	}
	return want, wantErr
}

// canonicalBody is a body of n canonical elements, every one at lo = (i, i,
// i), with edit applied to element i's text.
func canonicalBody(n int, edit func(i int, el string) string) []byte {
	var sb strings.Builder
	sb.WriteString(`{"name":"b","elements":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(edit(i, fmt.Sprintf(`{"id":%d,"box":{"lo":[%d,%d,%d],"hi":[%d.5,%d,%d]}}`, i, i, i, i, i+1, i+1, i+1)))
	}
	sb.WriteString(`],"timeout_ms":5}`)
	return []byte(sb.String())
}

// failingReader yields data and then fails with err.
func failingReader(data []byte, err error) io.Reader {
	return io.MultiReader(bytes.NewReader(data), failedReader{err})
}

// TestBlockDecodeMatchesSerial is the block path's contract: through blocks
// of any size a body decodes to what the serial decoder makes of it, elements
// bit for bit or the same error, with the same offset — wherever the cuts fall
// and whatever a block declines: a spelling the recogniser does not take, an
// invalid box while the next block has decoded, an elementEnd inside a key,
// the body ending or failing mid-block.
func TestBlockDecodeMatchesSerial(t *testing.T) {
	// Every spelling of TestCanonicalMatchesGeneral, in every position of a
	// three-element array, through blocks of every size up to the body's.
	for _, el := range append([]string{canonicalElem}, canonicalDeviations()...) {
		for _, elements := range []string{el, canonicalElem + `,` + el, el + `,` + canonicalElem, canonicalElem + `,` + el + `,` + canonicalElem} {
			body := []byte(`{"name":"x","elements":[` + elements + `],"timeout_ms":5}`)
			sizes := make([]int, len(body))
			for i := range sizes {
				sizes[i] = i + 1
			}
			blockBodyCheck(t, "spelling", body, func() io.Reader { return bytes.NewReader(body) }, sizes...)
			blockBodyCheck(t, "spelling, one byte a read", body, func() io.Reader { return iotest.OneByteReader(bytes.NewReader(body)) }, 16, 64)
		}
	}

	// The four generators' bodies, as encoding/json writes the wire structs.
	for _, in := range []struct {
		name  string
		elems []transformers.Element
	}{
		{"uniform", transformers.GenerateUniform(3000, 1)},
		{"dense_cluster", transformers.GenerateDenseCluster(3000, 2)},
		{"axons", transformers.GenerateAxons(3000, 3)},
		{"dendrites", transformers.GenerateDendrites(3000, 4)},
	} {
		dtos := make([]elementDTO, len(in.elems))
		for i, e := range in.elems {
			dtos[i] = elementDTO{ID: e.ID, Box: toBoxDTO(e.Box)}
		}
		array, err := json.Marshal(dtos)
		if err != nil {
			t.Fatal(err)
		}
		body := append(append([]byte(`{"name":"x","elements":`), array...), '}')
		for _, shape := range []struct {
			name   string
			reader func() io.Reader
		}{
			{"whole", func() io.Reader { return bytes.NewReader(body) }},
			{"1000-byte reads", func() io.Reader { return &chunkReader{data: body, n: 1000} }},
		} {
			got, err := blockBodyCheck(t, in.name+", "+shape.name, body, shape.reader, 64, 1<<10, 4<<10, maxIngestToken)
			if err != nil || !sameElements(got, in.elems) {
				t.Fatalf("%s, %s: decoded %d elements (%v), not the %d marshalled", in.name, shape.name, len(got), err, len(in.elems))
			}
		}
	}

	// One element off the canonical path in the middle of a 500-element body,
	// around every element of a 1 KB block's worth either side of it.
	const n, at = 500, 250
	whole := func(body []byte) func() io.Reader { return func() io.Reader { return bytes.NewReader(body) } }
	for _, tc := range []struct {
		name string
		edit func(el string) string
	}{
		{"space after a comma", func(el string) string { return " " + el }},
		{"members reordered", func(el string) string {
			return strings.Replace(strings.Replace(el, `"id"`, `"xx"`, 1), `"box"`, `"id"`, 1)
		}},
		{"four-number lo", func(el string) string { return strings.Replace(el, `"lo":[`, `"lo":[1e9,`, 1) }},
		{"lo > hi", func(el string) string { return strings.Replace(el, `"hi":[`, `"hi":[-`, 1) }},
		{"elementEnd in a key", func(el string) string { return strings.TrimSuffix(el, "}") + `,"k]}},":1}` }},
		{"elementEnd in a rejected key at the end", func(el string) string { return el + `,"x]}},` }},
		{"null", func(string) string { return "null" }},
	} {
		for off := -8; off <= 8; off++ {
			body := canonicalBody(n, func(i int, el string) string {
				if i == at+off {
					return tc.edit(el)
				}
				return el
			})
			blockBodyCheck(t, tc.name, body, whole(body), 64, 1<<10, 1<<10+off*7)
		}
	}

	// A refused element in block k while block k+1 has long decoded: the
	// workers run ahead of the framer on any machine with two cores.
	body := canonicalBody(20000, func(i int, el string) string {
		if i == 9000 {
			return strings.Replace(el, `"hi":[`, `"hi":[-5,`, 1)
		}
		return el
	})
	if _, err := blockBodyCheck(t, "four-number hi deep in", body, whole(body), 1<<10, maxIngestToken); err == nil || !strings.Contains(err.Error(), "element 9000: hi must be exactly three numbers") {
		t.Fatalf("four-number hi deep in: %v", err)
	}
	body = canonicalBody(20000, func(i int, el string) string {
		if i == 9000 {
			return strings.Replace(el, `"hi":[`, `"hi":[-`, 1)
		}
		return el
	})
	if _, err := blockBodyCheck(t, "lo > hi deep in", body, whole(body), 1<<10, maxIngestToken); err == nil || !strings.Contains(err.Error(), "element 9000: invalid box") {
		t.Fatalf("lo > hi deep in: %v", err)
	}

	// Truncated, and failing, at every 53rd byte of a body of many blocks.
	full := canonicalBody(600, func(_ int, el string) string { return el })
	failed := errors.New("connection reset")
	for cut := 1; cut < len(full); cut += 53 {
		blockBodyCheck(t, fmt.Sprintf("truncated at %d", cut), full[:cut], whole(full[:cut]), 1<<10, 4<<10)
		_, err := blockBodyCheck(t, fmt.Sprintf("failing at %d", cut), full[:cut], func() io.Reader { return failingReader(full[:cut], failed) }, 1<<10, 4<<10)
		if err != failed {
			t.Fatalf("failing at %d: %v, want the reader's error", cut, err)
		}
	}
}

// TestBlockDecodeLeavesNoWorker: an upload that is refused mid-stream — a
// syntax error deep in a long body, a truncated body, a client that goes away
// — returns with every decode worker gone, as does one that is accepted.
func TestBlockDecodeLeavesNoWorker(t *testing.T) {
	svc := NewService(Config{})
	h := NewHandler(svc)
	const n = 40000 // some 60 blocks
	good := canonicalBody(n, func(_ int, el string) string { return el })
	broken := canonicalBody(n, func(i int, el string) string {
		if i == n/2 {
			return el + "x"
		}
		return el
	})
	before := runtime.NumGoroutine()
	for _, tc := range []struct {
		name   string
		body   io.Reader
		status int
	}{
		{"syntax error", bytes.NewReader(broken), http.StatusBadRequest},
		{"truncated", bytes.NewReader(good[:len(good)*2/3]), http.StatusBadRequest},
		{"client gone", failingReader(good[:len(good)/2], io.ErrUnexpectedEOF), http.StatusBadRequest},
		{"accepted", bytes.NewReader(good), http.StatusCreated},
	} {
		w := &discardResponse{header: http.Header{}}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/datasets", tc.body))
		if w.status != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, w.status, tc.status)
		}
		checkGoroutines(t, before)
	}
}

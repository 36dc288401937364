package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/transformers"
)

// rawPost answers the raw response body: the wire tests compare bytes.
func rawPost(t *testing.T, url, body string, header map[string]string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s %s: status %d, err %v, body %.200s", url, body, resp.StatusCode, err, raw)
	}
	return raw
}

// reencode is what json.NewEncoder(w).Encode writes for the value raw decodes
// to: the reference the hand-framed bodies must match byte for byte.
func reencode[T any](t *testing.T, raw []byte) (T, []byte) {
	t.Helper()
	var v T
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("decode %.200s: %v", raw, err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return v, buf.Bytes()
}

// TestWireFormatGolden: the collected body is written around its pairs and an
// NDJSON pair line is appended, not reflected — yet every response is, byte
// for byte, what encoding/json writes for joinResponse, geom.Pair and
// streamTrailer: with pairs (more than one collector chunk and one response
// bufferful of them), without include_pairs, with none to include, on a cache
// hit, and with the trace echoed after the pairs.
func TestWireFormatGolden(t *testing.T) {
	ts, svc := newTestServer(t, Config{})
	addDataset(t, svc, "a", bigOverlapDataset(700, 51))
	addDataset(t, svc, "b", bigOverlapDataset(700, 52))
	// Two sparse draws of tiny boxes: their join is empty.
	addDataset(t, svc, "s1", transformers.GenerateUniform(50, 53))
	addDataset(t, svc, "s2", transformers.GenerateUniform(50, 54))
	results := -1

	for _, tc := range []struct {
		name, body string
		header     map[string]string
		pairs      bool // the body carries the pairs
		cached     bool
		trace      bool
	}{
		{name: "pairs", body: `{"a":"a","b":"b","include_pairs":true,"no_cache":true}`, pairs: true},
		{name: "summary only", body: `{"a":"a","b":"b","no_cache":true}`},
		{name: "cache fill", body: `{"a":"a","b":"b","include_pairs":true}`, pairs: true},
		{name: "cache hit", body: `{"a":"a","b":"b","include_pairs":true}`, pairs: true, cached: true},
		{name: "cache hit, summary only", body: `{"a":"a","b":"b"}`, cached: true},
		{name: "traced", body: `{"a":"a","b":"b","include_pairs":true,"no_cache":true}`, header: map[string]string{"X-Trace": "1"}, pairs: true, trace: true},
		{name: "traced by field, summary only", body: `{"a":"a","b":"b","no_cache":true,"trace":true}`, trace: true},
	} {
		raw := rawPost(t, ts.URL+"/join", tc.body, tc.header)
		resp, want := reencode[joinResponse](t, raw)
		if !bytes.Equal(raw, want) {
			t.Errorf("%s: body differs from encoding/json's:\n got  %.300s\n want %.300s", tc.name, raw, want)
		}
		if results < 0 {
			results = int(resp.Summary.Results)
			if results <= 2*pairChunkLen || results*20 <= 2*responseBufBytes {
				t.Fatalf("fixture joins to %d pairs: too few to span collector chunks and response buffers", results)
			}
		}
		wantPairs := 0
		if tc.pairs {
			wantPairs = results
		}
		if int(resp.Summary.Results) != results || len(resp.Pairs) != wantPairs || resp.Cached != tc.cached || (resp.Trace != nil) != tc.trace {
			t.Errorf("%s: results=%d pairs=%d cached=%v trace=%v, want %d, %d, %v, %v", tc.name,
				resp.Summary.Results, len(resp.Pairs), resp.Cached, resp.Trace != nil, results, wantPairs, tc.cached, tc.trace)
		}
	}

	// No pairs to include: "pairs" is omitted, as omitempty omits it.
	raw := rawPost(t, ts.URL+"/join", `{"a":"s1","b":"s2","include_pairs":true,"no_cache":true}`, nil)
	if resp, want := reencode[joinResponse](t, raw); !bytes.Equal(raw, want) || resp.Summary.Results != 0 || bytes.Contains(raw, []byte(`"pairs"`)) {
		t.Errorf("zero pairs: body %.300s, encoding/json writes %.300s", raw, want)
	}

	// NDJSON, executed and replayed: pair lines, then the trailer.
	for _, body := range []string{`{"a":"a","b":"b","stream":true,"no_cache":true}`, `{"a":"a","b":"b","stream":true}`} {
		lines := bytes.SplitAfter(rawPost(t, ts.URL+"/join", body, map[string]string{"X-Trace": "1"}), []byte("\n"))
		if last := len(lines) - 1; len(lines[last]) == 0 {
			lines = lines[:last]
		}
		if len(lines) != results+1 {
			t.Fatalf("%s: %d lines, want %d pairs and a trailer", body, len(lines), results)
		}
		for i, line := range lines[:results] {
			if _, want := reencode[transformers.Pair](t, line); !bytes.Equal(line, want) {
				t.Fatalf("%s: pair line %d is %q, json.Marshal(pair)+\"\\n\" is %q", body, i, line, want)
			}
		}
		trailer, want := reencode[streamTrailer](t, lines[results])
		if !bytes.Equal(lines[results], want) || trailer.Pairs != results || trailer.Aborted || trailer.Summary == nil || trailer.Trace == nil {
			t.Errorf("%s: trailer %.300s, encoding/json writes %.300s", body, lines[results], want)
		}
	}
}

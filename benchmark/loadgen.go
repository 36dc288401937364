package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
)

// connections is what the workloads need: two closed-loop clients, or one
// reader beside the append writer. It equals nproc on the reference box, so
// the daemon's two pool workers are never oversubscribed and the admission
// queue never builds.
const connections = 2

// newHTTPClient returns a keep-alive client limited to connections sockets
// per host; dials counts every connection it opens, so reuse is checked
// rather than assumed.
func newHTTPClient(dials *atomic.Int64) *http.Client {
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	return &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err == nil {
				dials.Add(1)
			}
			return c, err
		},
		MaxConnsPerHost:     connections,
		MaxIdleConnsPerHost: connections,
		MaxIdleConns:        connections,
		IdleConnTimeout:     5 * time.Minute,
		DisableCompression:  true,
	}}
}

// appendElements appends the wire form of elems as a JSON array. Floats are
// written in their shortest round-tripping form, so the daemon indexes
// exactly the float64s the oracle joins.
func appendElements(dst []byte, elems []geom.Element) []byte {
	dst = append(dst, '[')
	for i, e := range elems {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":`...)
		dst = strconv.AppendUint(dst, e.ID, 10)
		dst = append(dst, `,"box":{"lo":[`...)
		for d := 0; d < geom.Dims; d++ {
			if d > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendFloat(dst, e.Box.Lo[d], 'g', -1, 64)
		}
		dst = append(dst, `],"hi":[`...)
		for d := 0; d < geom.Dims; d++ {
			if d > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendFloat(dst, e.Box.Hi[d], 'g', -1, 64)
		}
		dst = append(dst, `]}}`...)
	}
	return append(dst, ']')
}

func datasetBody(name string, elems []geom.Element) []byte {
	return append(appendElements([]byte(`{"name":`+strconv.Quote(name)+`,"elements":`), elems), '}')
}

func appendBody(elems []geom.Element) []byte {
	return append(appendElements([]byte(`{"elements":`), elems), '}')
}

// joinDoc is what the benchmark reads from a join response: the collected
// body up to its pair list, or a stream's trailer line.
type joinDoc struct {
	Cached  bool `json:"cached"`
	Summary *struct {
		Algorithm string `json:"algorithm"`
		Results   int    `json:"results"`
	} `json:"summary"`
	// Stream trailer only.
	Aborted *bool  `json:"aborted"`
	Pairs   *int   `json:"pairs"`
	Error   string `json:"error"`
	// Present when the request carried X-Trace: 1.
	Trace *obs.TraceDTO `json:"trace"`
}

// scanned is a join response read without decoding its pairs.
type scanned struct {
	pairs     int
	bytes     int64
	firstByte time.Duration // request start → first body byte
	doc       joinDoc
}

// pairsMarker opens the pair list of a collected response; every byte '{'
// after it opens one pair object. (Window requests never ask for a trace,
// the only other object that could follow.)
var pairsMarker = []byte(`"pairs":[`)

// scanJoin reads a join response from r, counting pair lines (stream) or
// pair objects (collected) without JSON-decoding each one, and decodes only
// the trailer line or the body's head. buf is the caller's reusable read
// buffer; t0 is when the request was sent.
func scanJoin(r io.Reader, stream bool, buf []byte, t0 time.Time) (scanned, error) {
	var s scanned
	var line []byte // stream: the current partial line; collected: the head
	var last []byte // stream: the most recent complete line
	inPairs := false
	for {
		n, err := r.Read(buf)
		if n > 0 {
			if s.bytes == 0 {
				s.firstByte = time.Since(t0)
			}
			s.bytes += int64(n)
			chunk := buf[:n]
			switch {
			case stream:
				nl := bytes.Count(chunk, []byte{'\n'})
				s.pairs += nl
				if nl == 0 {
					line = append(line, chunk...)
					break
				}
				end := bytes.LastIndexByte(chunk, '\n')
				if start := bytes.LastIndexByte(chunk[:end], '\n'); start >= 0 {
					last = append(last[:0], chunk[start+1:end]...)
				} else {
					last = append(append(last[:0], line...), chunk[:end]...)
				}
				line = append(line[:0], chunk[end+1:]...)
			case inPairs:
				s.pairs += bytes.Count(chunk, []byte{'{'})
			default:
				from := len(line) - len(pairsMarker)
				if from < 0 {
					from = 0
				}
				line = append(line, chunk...)
				if i := bytes.Index(line[from:], pairsMarker); i >= 0 {
					rest := line[from+i+len(pairsMarker):]
					s.pairs += bytes.Count(rest, []byte{'{'})
					line = append(bytes.TrimRight(line[:from+i], ","), '}')
					inPairs = true
				}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return s, err
		}
	}
	doc := line
	if stream {
		if len(line) != 0 {
			return s, errors.New("stream ended without a newline-terminated trailer")
		}
		doc = last
		s.pairs-- // the trailer is a line, not a pair
	}
	if err := json.Unmarshal(doc, &s.doc); err != nil {
		return s, fmt.Errorf("decode response summary: %w", err)
	}
	return s, nil
}

// check applies the per-response validity rules every window response must
// pass: a complete stream (aborted:false, trailer count = lines) and, when
// the response carries its pairs, a summary whose result count equals the
// pairs actually delivered.
func (s scanned) check(stream, carriesPairs bool) error {
	if s.doc.Error != "" {
		return fmt.Errorf("daemon reported: %s", s.doc.Error)
	}
	if s.doc.Summary == nil {
		return errors.New("response carries no summary")
	}
	if stream {
		if s.doc.Aborted == nil || *s.doc.Aborted {
			return errors.New("stream trailer is not aborted:false")
		}
		if s.doc.Pairs == nil || *s.doc.Pairs != s.pairs {
			return fmt.Errorf("trailer counts %v pairs, stream carried %d lines", s.doc.Pairs, s.pairs)
		}
	}
	if carriesPairs && s.doc.Summary.Results != s.pairs {
		return fmt.Errorf("summary.results %d, response carried %d pairs", s.doc.Summary.Results, s.pairs)
	}
	return nil
}

// decodeJoin fully decodes a join response into its pairs — the warm-up path
// the oracle checks, and the traced cross-check request.
func decodeJoin(r io.Reader, stream bool) ([]geom.Pair, joinDoc, error) {
	type pairDTO struct {
		A uint64 `json:"a"`
		B uint64 `json:"b"`
	}
	var doc joinDoc
	var pairs []geom.Pair
	if !stream {
		var body struct {
			joinDoc
			Pairs []pairDTO `json:"pairs"`
		}
		if err := json.NewDecoder(r).Decode(&body); err != nil {
			return nil, doc, err
		}
		for _, p := range body.Pairs {
			pairs = append(pairs, geom.Pair{A: p.A, B: p.B})
		}
		return pairs, body.joinDoc, nil
	}
	br := bufio.NewReaderSize(r, 64<<10)
	var prev []byte
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if prev != nil {
				var p pairDTO
				if err := json.Unmarshal(prev, &p); err != nil {
					return nil, doc, fmt.Errorf("pair line: %w", err)
				}
				pairs = append(pairs, geom.Pair{A: p.A, B: p.B})
			}
			prev = line
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, doc, err
		}
	}
	if prev == nil {
		return nil, doc, errors.New("empty stream")
	}
	if err := json.Unmarshal(prev, &doc); err != nil {
		return nil, doc, fmt.Errorf("trailer: %w", err)
	}
	if doc.Aborted == nil || *doc.Aborted || doc.Pairs == nil || *doc.Pairs != len(pairs) {
		return nil, doc, fmt.Errorf("incomplete stream: trailer %s", bytes.TrimSpace(prev))
	}
	return pairs, doc, nil
}

// shape is one distinct join request of a workload and what its answer
// must be.
type shape struct {
	distance float64
	body     []byte
	// want is the exact pair count of the uploaded datasets. While the
	// append writer grows B the count grows too: min is then the last count
	// seen (answers never shrink) and max the oracle's count over everything
	// the writer will have appended.
	want     int
	growing  bool
	min, max int
}

// joinSample is one completed, correct join as the client saw it.
type joinSample struct {
	latency   time.Duration
	firstByte time.Duration
	pairs     int
	engine    string
}

// target addresses the server under load: the daemon, or the traced run's
// in-process listener.
type target struct {
	hc     *http.Client
	base   string
	path   string
	stream bool
	// carriesPairs: the responses list their pairs (stream or
	// include_pairs) rather than only summarising them.
	carriesPairs bool
	header       http.Header
}

func (w workload) target(hc *http.Client, base string) target {
	return target{hc: hc, base: base, path: w.Path, stream: w.Stream, carriesPairs: w.Stream || w.IncludePairs}
}

// post sends one join request and returns the open response.
func (t target) post(ctx context.Context, body []byte, extra http.Header) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+t.path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range t.header {
		req.Header[k] = v
	}
	for k, v := range extra {
		req.Header[k] = v
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// decoded sends one join and fully decodes the answer.
func (t target) decoded(ctx context.Context, body []byte, extra http.Header) ([]geom.Pair, joinDoc, error) {
	resp, err := t.post(ctx, body, extra)
	if err != nil {
		return nil, joinDoc{}, err
	}
	defer resp.Body.Close()
	pairs, doc, err := decodeJoin(resp.Body, t.stream)
	// Read to EOF (the decoder stops at the value's end) or the transport
	// drops the connection instead of reusing it.
	_, _ = io.Copy(io.Discard, resp.Body)
	return pairs, doc, err
}

// join sends one join and scans the answer.
func (t target) join(ctx context.Context, body, buf []byte) (scanned, time.Duration, error) {
	t0 := time.Now()
	resp, err := t.post(ctx, body, nil)
	if err != nil {
		return scanned{}, 0, err
	}
	s, err := scanJoin(resp.Body, t.stream, buf, t0)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return s, lat, err
	}
	return s, lat, s.check(t.stream, t.carriesPairs)
}

// appendSample is one append as the writer saw it.
type appendSample struct {
	latency time.Duration // from the due instant
	late    time.Duration // how long after the due instant it was sent
}

// windowResult is everything one measured window produced.
type windowResult struct {
	elapsed   time.Duration
	joins     []joinSample
	appends   []appendSample
	attempted int
	failed    int
	failures  []string // first few, for the report
	daemonCPU time.Duration
	selfCPU   time.Duration
	peakRSSMB float64
	before    daemonStats
	after     daemonStats
}

func (w *windowResult) fail(err error) {
	w.failed++
	if len(w.failures) < 5 {
		w.failures = append(w.failures, err.Error())
	}
}

// runWindow drives wl's traffic against d for the window: Clients closed
// loops over the shapes and, on append-replay, the open-loop writer landing
// one batch of in.Stream per period. Only requests that complete inside the
// window count; the ones in flight at its close are finished and dropped.
func runWindow(ctx context.Context, wl workload, d *daemon, in inputs, shapes []*shape, window, period time.Duration) (windowResult, error) {
	var res windowResult
	var err error
	if res.before, err = d.stats(ctx); err != nil {
		return res, err
	}
	p0, err := readProc(d.pid())
	if err != nil {
		return res, err
	}
	self0 := selfCPU()
	start := time.Now()
	deadline := start.Add(window)

	// One lane per goroutine — the clients, then the writer — merged once
	// all of them are done.
	type lane struct {
		joins     []joinSample
		appends   []appendSample
		attempted int
		errs      []error
	}
	lanes := make([]lane, wl.Clients+1)
	var wg sync.WaitGroup
	for c := 0; c < wl.Clients; c++ {
		wg.Add(1)
		go func(c int, out *lane) {
			defer wg.Done()
			tgt := wl.target(d.hc, d.base)
			if wl.Appends {
				tgt.header = http.Header{"X-Tenant": {"dash"}}
			}
			buf := make([]byte, 64<<10)
			for i := c; time.Now().Before(deadline); i++ {
				sh := shapes[i%len(shapes)]
				s, lat, err := tgt.join(ctx, sh.body, buf)
				if time.Now().After(deadline) {
					return
				}
				out.attempted++
				if err == nil {
					err = sh.accept(s.doc.Summary.Results)
				}
				if err != nil {
					out.errs = append(out.errs, fmt.Errorf("join distance=%v: %w", sh.distance, err))
					continue
				}
				out.joins = append(out.joins, joinSample{latency: lat, firstByte: s.firstByte, pairs: s.doc.Summary.Results, engine: s.doc.Summary.Algorithm})
			}
		}(c, &lanes[c])
	}
	if wl.Appends {
		var bodies [][]byte
		for k := 0; k < appendCount(window, period); k++ {
			bodies = append(bodies, appendBody(in.Stream[k*in.Batch:(k+1)*in.Batch]))
		}
		wg.Add(1)
		go func(out *lane) {
			defer wg.Done()
			hdr := http.Header{"X-Tenant": {"ingest"}, "X-Priority": {"batch"}}
			for k, body := range bodies {
				due := start.Add(time.Duration(k+1) * period)
				time.Sleep(time.Until(due))
				sent := time.Now()
				out.attempted++
				var info struct {
					Appended int `json:"appended"`
				}
				resp, err := postJSON(ctx, d.hc, d.base+"/datasets/"+in.NameB+"/append", hdr, body, http.StatusOK)
				if err == nil {
					err = json.Unmarshal(resp, &info)
				}
				if err == nil && info.Appended != in.Batch {
					err = fmt.Errorf("appended %d of %d elements", info.Appended, in.Batch)
				}
				if err != nil {
					out.errs = append(out.errs, fmt.Errorf("append %d: %w", k+1, err))
					continue
				}
				out.appends = append(out.appends, appendSample{latency: time.Since(due), late: sent.Sub(due)})
			}
		}(&lanes[wl.Clients])
	}

	time.Sleep(time.Until(deadline))
	res.elapsed = time.Since(start)
	p1, perr := readProc(d.pid())
	res.selfCPU = selfCPU() - self0
	wg.Wait()
	if perr != nil {
		return res, perr
	}
	res.daemonCPU = p1.cpu - p0.cpu
	res.peakRSSMB = p1.peakRSSMB
	for _, l := range lanes {
		res.joins = append(res.joins, l.joins...)
		res.appends = append(res.appends, l.appends...)
		res.attempted += l.attempted
		for _, e := range l.errs {
			res.fail(e)
		}
	}
	if res.after, err = d.stats(ctx); err != nil {
		return res, err
	}
	return res, nil
}

// accept checks a response's pair count against what the shape allows and,
// on a growing dataset, ratchets the floor. Each shape is used by a single
// client, so the ratchet needs no lock.
func (sh *shape) accept(pairs int) error {
	if !sh.growing {
		if pairs != sh.want {
			return fmt.Errorf("%d pairs, oracle says %d", pairs, sh.want)
		}
		return nil
	}
	if pairs < sh.min {
		return fmt.Errorf("%d pairs after an earlier answer of %d: results shrank", pairs, sh.min)
	}
	if pairs > sh.max {
		return fmt.Errorf("%d pairs, more than the oracle's %d over everything appended", pairs, sh.max)
	}
	sh.min = pairs
	return nil
}

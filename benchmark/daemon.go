package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// buildDaemon compiles ./cmd/spatialjoind of the tree at root into buildDir
// and returns the binary's path. Build time is not part of any metric.
func buildDaemon(root, buildDir string) (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(buildDir, "spatialjoind")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/spatialjoind")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build spatialjoind: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one spatialjoind child process of this run.
type daemon struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port
	nonce string
	log   *os.File
	// hc is the one keep-alive client all of the run's traffic to this
	// daemon goes through; dials counts the connections it opened.
	hc    *http.Client
	dials atomic.Int64

	exited chan struct{} // closed once Wait returned
	stop   sync.Once
}

// live tracks every running child so the signal handler and the panic path
// can stop them all.
var live struct {
	sync.Mutex
	set map[*daemon]struct{}
}

func stopAllDaemons() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.Stop()
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches bin with default flags (only -addr) on a free port,
// waits for /healthz, and proves the answering daemon is this child: it
// uploads a one-element dataset under a per-run nonce name and requires
// /stats to list it. A stale spatialjoind that owns the port cannot pass —
// the child fails to bind and exits, which is reported as such.
func startDaemon(ctx context.Context, bin, logPath string) (*daemon, error) {
	var nonce [8]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child must never outlive this process, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL, Setpgid: true}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, nonce: "nonce-" + hex.EncodeToString(nonce[:]), log: logf, exited: make(chan struct{})}
	d.hc = newHTTPClient(&d.dials)
	live.Lock()
	if live.set == nil {
		live.set = make(map[*daemon]struct{})
	}
	live.set[d] = struct{}{}
	live.Unlock()
	go func() {
		_ = cmd.Wait()
		close(d.exited)
	}()
	if err := d.awaitHealthy(ctx); err != nil {
		d.Stop()
		return nil, err
	}
	if err := d.proveOwnership(ctx); err != nil {
		d.Stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) awaitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("spatialjoind exited during start-up (port taken by another process?); see %s", d.log.Name())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if err := d.healthy(ctx); err == nil {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("spatialjoind not healthy after 20s: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// healthy requires /healthz to answer 200 with status ok.
func (d *daemon) healthy(ctx context.Context) error {
	var h struct {
		Status string `json:"status"`
	}
	if err := getJSON(ctx, d.hc, d.base+"/healthz", &h); err != nil {
		return err
	}
	if h.Status != "ok" {
		return fmt.Errorf("healthz status %q", h.Status)
	}
	return nil
}

func (d *daemon) proveOwnership(ctx context.Context) error {
	body := []byte(`{"name":"` + d.nonce + `","elements":[{"id":1,"box":{"lo":[0,0,0],"hi":[1,1,1]}}]}`)
	if _, err := postJSON(ctx, d.hc, d.base+"/datasets", nil, body, http.StatusCreated); err != nil {
		return fmt.Errorf("nonce upload: %w", err)
	}
	st, err := d.stats(ctx)
	if err != nil {
		return err
	}
	for _, ds := range st.Datasets {
		if ds.Name == d.nonce {
			return nil
		}
	}
	return fmt.Errorf("daemon at %s does not list this run's nonce dataset %s: not our child", d.base, d.nonce)
}

// Stop sends SIGINT, waits for the graceful drain, and kills the child if it
// does not exit; it returns once the process has been reaped. Idempotent.
func (d *daemon) Stop() {
	d.stop.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGINT)
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
		d.log.Close()
		d.hc.CloseIdleConnections()
		live.Lock()
		delete(live.set, d)
		live.Unlock()
	})
}

// daemonStats is the part of /stats the benchmark reads.
type daemonStats struct {
	Datasets []struct {
		Name string `json:"name"`
	} `json:"datasets"`
	Catalog struct {
		Acquires  uint64 `json:"acquires"`
		IndexHits uint64 `json:"index_hits"`
		Merges    uint64 `json:"merges"`
	} `json:"catalog"`
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	Pool struct {
		Shed uint64 `json:"shed"`
	} `json:"pool"`
	Tenants map[string]struct {
		Admitted uint64 `json:"admitted"`
	} `json:"tenants"`
}

func (s daemonStats) admitted() uint64 {
	var n uint64
	for _, t := range s.Tenants {
		n += t.Admitted
	}
	return n
}

func (d *daemon) stats(ctx context.Context) (daemonStats, error) {
	var st daemonStats
	err := getJSON(ctx, d.hc, d.base+"/stats", &st)
	return st, err
}

func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	return json.Unmarshal(buf.Bytes(), v)
}

// postJSON posts body and returns the response body, requiring wantStatus.
func postJSON(ctx context.Context, hc *http.Client, url string, hdr http.Header, body []byte, wantStatus int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != wantStatus {
		return nil, fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return buf.Bytes(), nil
}

// procSample is one reading of a process's cumulative CPU time and memory
// high-water mark from /proc.
type procSample struct {
	cpu       time.Duration // utime + stime
	peakRSSMB float64       // VmHWM
}

// clockTick is the kernel's USER_HZ; 100 on every Linux this runs on.
const clockTick = 100

func readProc(pid int) (procSample, error) {
	var s procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name: state is field 3, utime
	// and stime fields 14 and 15.
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return s, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return s, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return s, errors.New("unparsable /proc stat times")
	}
	s.cpu = time.Duration(ut+st) * time.Second / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return s, fmt.Errorf("VmHWM: %w", err)
			}
			s.peakRSSMB = kb / 1024
		}
	}
	return s, nil
}

// selfCPU is this process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

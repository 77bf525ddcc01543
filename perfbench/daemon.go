package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	mtsim "repro"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// readyTimeout bounds how long a daemon may take to come up.
const readyTimeout = 30 * time.Second

// procSet tracks every daemon a run started, so each is stopped and
// waited for on every exit path.
type procSet struct {
	mu   sync.Mutex
	live []*daemon
}

func (ps *procSet) add(d *daemon) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.live = append(ps.live, d)
}

// stopAll stops every daemon still running.
func (ps *procSet) stopAll() {
	ps.mu.Lock()
	live := ps.live
	ps.live = nil
	ps.mu.Unlock()
	for _, d := range live {
		d.stop()
	}
}

// daemon is one started mtserve or mtcoord process.
type daemon struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	url     string // http://host:port once listening
	debug   string // http://host:port of the pprof listener, traced runs only
	started time.Time
	ready   time.Time
	done    chan struct{} // closed once the process has been reaped
}

// setup is the time from exec until the daemon answered /healthz.
func (d *daemon) setup() time.Duration { return d.ready.Sub(d.started) }

// listenRE matches the daemons' startup log lines, which carry the bound
// address (daemons listen on port 0 so runs never collide).
var listenRE = regexp.MustCompile(`msg="(mtserve|mtcoord|debug server) listening" addr=(\S+)`)

// startDaemon execs bin with args (plus a port-0 listen address and, on
// traced runs, a pprof listener), waits until its log names its address,
// then until ready reports true for its /healthz reply.
func startDaemon(ctx context.Context, b *bench, bin, name string, args []string, traced bool, ready func(*serve.HealthResponse) bool) (*daemon, error) {
	logPath := filepath.Join(b.work, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	if traced {
		args = append(args, "-debug-addr", "127.0.0.1:0")
	}
	cmd := exec.Command(filepath.Join(b.bin, bin), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills a daemon whose benchmark died, so none outlives it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{name: name, cmd: cmd, logPath: logPath, done: make(chan struct{})}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	// The reaper ends when the process does; stop and kill9 wait for it.
	go func() {
		_ = cmd.Wait()
		close(d.done)
	}()
	b.procs.add(d)
	if err := d.waitReady(ctx, traced, ready); err != nil {
		d.stop()
		return nil, fmt.Errorf("%s: %w (log: %s)", name, err, d.logTail())
	}
	return d, nil
}

// waitReady polls the log for the listen address, then /healthz.
func (d *daemon) waitReady(ctx context.Context, wantDebug bool, ready func(*serve.HealthResponse) bool) error {
	deadline := time.Now().Add(readyTimeout)
	c := &http.Client{Timeout: time.Second}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return errors.New("not ready in time")
		}
		if d.exited() {
			return errors.New("exited during start-up")
		}
		if d.url == "" || (wantDebug && d.debug == "") {
			d.scanLog()
			time.Sleep(200 * time.Microsecond)
			continue
		}
		var h serve.HealthResponse
		if err := getJSON(c, d.url+"/healthz", &h); err == nil && h.Status == "ok" && (ready == nil || ready(&h)) {
			d.ready = time.Now()
			return nil
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// scanLog picks the listen addresses out of the daemon's log.
func (d *daemon) scanLog() {
	data, err := os.ReadFile(d.logPath)
	if err != nil {
		return
	}
	for _, m := range listenRE.FindAllStringSubmatch(string(data), -1) {
		if m[1] == "debug server" {
			d.debug = "http://" + m[2]
		} else {
			d.url = "http://" + m[2]
		}
	}
}

// logTail returns the last lines of the daemon's log, for error messages.
func (d *daemon) logTail() string {
	data, _ := os.ReadFile(d.logPath)
	s := strings.TrimSpace(string(data))
	if len(s) > 600 {
		s = "..." + s[len(s)-600:]
	}
	return s
}

// exited reports whether the process has ended.
func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// stop asks the daemon to drain with SIGTERM, kills it if it has not
// exited after ten seconds, and waits for it.
func (d *daemon) stop() {
	if d.exited() {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// kill9 kills the daemon with SIGKILL and waits for it.
func (d *daemon) kill9() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// peakRSS is the daemon's VmHWM in MB.
func (d *daemon) peakRSS() (float64, error) { return peakRSSMB(d.cmd.Process.Pid) }

// startServe starts an mtserve with extra flags.
func startServe(ctx context.Context, b *bench, name string, args []string, traced bool) (*daemon, error) {
	return startDaemon(ctx, b, "mtserve", name, args, traced, nil)
}

// startCluster starts an mtcoord and n mtserve workers joined to it, and
// returns once the coordinator reports all n workers live.
func startCluster(ctx context.Context, b *bench, name string, n int, traced bool) (coord *daemon, workers []*daemon, err error) {
	coord, err = startDaemon(ctx, b, "mtcoord", name+"-coord", nil, traced, nil)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		w, err := startServe(ctx, b, fmt.Sprintf("%s-worker%d", name, i), []string{"-workers", "1", "-coord", coord.url}, traced)
		if err != nil {
			return nil, nil, err
		}
		workers = append(workers, w)
	}
	if err := coord.waitReady(ctx, traced, func(h *serve.HealthResponse) bool { return h.Workers == n }); err != nil {
		return nil, nil, fmt.Errorf("%s: workers did not register: %w", coord.name, err)
	}
	return coord, workers, nil
}

// getJSON fetches url and decodes its 200 reply.
func getJSON(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// apiClient wraps the repository's client with a transport that keeps at
// most nproc connections per daemon, the benchmark's load limit.
type apiClient struct {
	*client.Client
	http *http.Client
}

func newClient(url string) *apiClient {
	n := runtime.NumCPU()
	hc := &http.Client{
		Timeout:   120 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n},
	}
	c := client.New(url)
	c.HTTPClient = hc
	return &apiClient{Client: c, http: hc}
}

// referenceCell simulates one explicitly placed cell on the daemon's
// reference engine.
func (c *apiClient) referenceCell(params mtsim.Params, app string, pl *mtsim.Placement, cfg mtsim.Config) (*mtsim.Result, error) {
	return c.SimulateCell(serve.Params{Scale: params.Scale, Seed: params.Seed}, app, pl.Algorithm, pl.Clusters, cfg, serve.EngineReference)
}

// waitJob follows a job's server-sent events until its terminal job
// event, and returns that event's status.
func (c *apiClient) waitJob(ctx context.Context, id string) (string, error) {
	ctx, cancel := context.WithTimeout(ctx, 150*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	// A stream outlives the client's request timeout, so it uses the
	// transport directly under the context's deadline.
	resp, err := c.http.Transport.RoundTrip(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("job events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "job":
			var je serve.JobEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &je); err != nil {
				return "", fmt.Errorf("job event: %w", err)
			}
			if serve.TerminalStatus(je.Status) {
				return je.Status, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errors.New("job event stream ended before a terminal event")
}

// promMetrics parses a Prometheus text exposition into name -> value
// (histogram buckets keep their le label in the name).
func promMetrics(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// histMeanMs is the mean of a microsecond histogram, in ms (0 if empty).
func histMeanMs(m map[string]float64, name string) float64 {
	if m[name+"_count"] == 0 {
		return 0
	}
	return m[name+"_sum"] / m[name+"_count"] / 1000
}

// histP50Ms is the upper bucket bound holding the median of a
// microsecond histogram, in ms (0 if empty).
func histP50Ms(m map[string]float64, name string) float64 {
	total := m[name+"_count"]
	if total == 0 {
		return 0
	}
	prefix := name + `_bucket{le="`
	best := -1.0
	for k, v := range m {
		bound, ok := strings.CutPrefix(k, prefix)
		if !ok || v < total/2 {
			continue
		}
		b, err := strconv.ParseFloat(strings.TrimSuffix(bound, `"}`), 64)
		if err != nil {
			continue // +Inf
		}
		if best < 0 || b < best {
			best = b
		}
	}
	if best < 0 {
		return 0
	}
	return best / 1000
}

// memStats reads a daemon's Go runtime statistics from the memory
// statistics block of its pprof heap profile (traced runs only): GC
// cycles, total GC pause (summed over the last 256 pauses) and bytes
// allocated.
func (d *daemon) memStats() (gcCycles, pauseMs, allocMB float64, err error) {
	if d.debug == "" {
		return 0, 0, 0, errors.New("no debug listener")
	}
	c := &http.Client{Timeout: 30 * time.Second}
	resp, err := c.Get(d.debug + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, 0, 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok {
			continue
		}
		switch k {
		case "NumGC":
			gcCycles, _ = strconv.ParseFloat(v, 64)
		case "TotalAlloc":
			a, _ := strconv.ParseFloat(v, 64)
			allocMB = a / (1 << 20)
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(v, "[]")) {
				ns, _ := strconv.ParseFloat(f, 64)
				pauseMs += ns / 1e6
			}
		}
	}
	return gcCycles, pauseMs, allocMB, nil
}

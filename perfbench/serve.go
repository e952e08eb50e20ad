package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// pollInterval is how often the generator asks for pending results.
// GET /jobs/{id}/result answers 202 with Retry-After: 1 while a job
// runs; honouring that on a poll would round every latency up to whole
// seconds, so the generator polls at this fixed short period instead
// (reads are never rate-limited). jobs.fetch_lag_ms shows its cost.
const pollInterval = 5 * time.Millisecond

// Generator health bounds: a run whose submissions left later than
// this against their schedule measured the generator, not the service,
// and is rejected as invalid.
const (
	maxLagP90 = 50 * time.Millisecond
	maxLag    = time.Second
)

// lockedBuffer collects a child's stderr while the harness reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// server is a running `vmsim -exp serve`.
type server struct {
	cmd    *exec.Cmd
	url    string
	stderr *lockedBuffer
	waited chan struct{} // closed once cmd.Wait returned
	err    error         // cmd.Wait's result, set before waited closes
}

var serverAddr = regexp.MustCompile(`introspection server on (http://\S+)`)

// startServer starts the job service on default flags with a fresh
// store and returns once /healthz answers ok.
func (b *bench) startServer() (*server, error) {
	store, err := b.tempDir("serve-store-")
	if err != nil {
		return nil, err
	}
	args := []string{"-exp", "serve", "-http", "127.0.0.1:0", "-store", store}
	b.argv = append([]string{"vmsim"}, args...)
	s := &server{cmd: exec.Command(b.vmsim, args...), stderr: &lockedBuffer{}, waited: make(chan struct{})}
	s.cmd.Dir = b.root
	s.cmd.Stderr = s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.waited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.waited:
			return nil, fmt.Errorf("vmsim serve exited: %v: %s", s.err, tail([]byte(s.stderr.String()), 400))
		default:
		}
		if s.url == "" {
			if m := serverAddr.FindStringSubmatch(s.stderr.String()); m != nil {
				s.url = m[1]
			}
		}
		if s.url != "" {
			if resp, err := http.Get(s.url + "/healthz"); err == nil {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK && bytes.HasPrefix(body, []byte("ok")) {
					return s, nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.kill()
	return nil, fmt.Errorf("vmsim serve did not answer /healthz within 20s: %s", tail([]byte(s.stderr.String()), 400))
}

// stop drains the server with SIGTERM, as a deployment would, and
// returns the process's resource usage.
func (s *server) stop() (procStats, error) {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.waited:
	case <-time.After(45 * time.Second):
		s.kill()
		return procStats{}, fmt.Errorf("vmsim serve did not drain within 45s")
	}
	if s.err != nil {
		return procStats{}, fmt.Errorf("vmsim serve: %v: %s", s.err, tail([]byte(s.stderr.String()), 400))
	}
	cpu, rss, err := rusageOf(s.cmd.ProcessState)
	return procStats{CPU: cpu, MaxRSS: rss}, err
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.waited
}

// jobRecord is one job as the generator saw it.
type jobRecord struct {
	arrival
	Lag       time.Duration // generator lateness of the first send (see stream)
	SubmitRTT time.Duration // POST round trip of the accepted submission
	Refusals  int           // 429/503 answers before acceptance
	ID        string
	Received  time.Time // result body fully read
	Body      []byte
	Err       error
	Status    *jobStatus // traced runs only
}

// jobStatus is the part of GET /jobs/{id} the traced run reads.
type jobStatus struct {
	Created  string `json:"created"`
	Started  string `json:"started"`
	Finished string `json:"finished"`
	Progress *struct {
		StoreHits   uint64 `json:"store_hits"`
		StoreMisses uint64 `json:"store_misses"`
	} `json:"progress"`
}

// streamResult is one open-loop pass of the schedule.
type streamResult struct {
	Start time.Time // the stream's time zero; arrival i is due at Start+Due
	Jobs  []*jobRecord
}

// stream plays the schedule against the server in an open loop: one
// goroutine submits each spec when it is due, whatever is pending, and
// the calling goroutine polls results — two busy goroutines and at most
// nproc connections. A refusal is counted and retried after its
// Retry-After. traced also fetches each finished job's status.
func (b *bench) stream(url string, sched []arrival, traced bool) (*streamResult, error) {
	conns := runtime.NumCPU()
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		Timeout:   30 * time.Second,
	}
	defer client.CloseIdleConnections()
	ctx, cancel := context.WithCancel(context.Background())
	res := &streamResult{Start: time.Now().Add(50 * time.Millisecond)}
	submitted := make(chan *jobRecord, len(sched)) // one send per arrival
	var wg sync.WaitGroup
	defer func() {
		cancel() // stops the submitter if the stream gives up early
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(submitted)
		var free time.Time // when the previous submission returned
		for _, a := range sched {
			rec := &jobRecord{arrival: a}
			due := res.Start.Add(a.Due)
			if !sleepUntil(ctx, due) {
				return
			}
			// The generator's own lateness: time it held a due
			// submission while free to send it. Waiting out a
			// Retry-After or a slow POST is the service's delay, and
			// counts in the job's latency instead.
			rec.Lag = time.Since(later(due, free))
			submit(ctx, client, url, rec)
			free = time.Now()
			submitted <- rec
		}
	}()

	lastDue := sched[len(sched)-1].Due
	deadline := res.Start.Add(lastDue + 90*time.Second)
	var pending []*jobRecord
	open := true
	for open || len(pending) > 0 {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%d jobs still pending 90s after the last arrival", len(pending))
		}
	drain:
		for open {
			select {
			case rec, ok := <-submitted:
				if !ok {
					open = false
					break drain
				}
				res.Jobs = append(res.Jobs, rec)
				if rec.Err == nil {
					pending = append(pending, rec)
				}
			default:
				break drain
			}
		}
		kept := pending[:0]
		for _, rec := range pending {
			if done := fetch(client, url, rec, traced); !done {
				kept = append(kept, rec)
			}
		}
		pending = kept
		time.Sleep(pollInterval)
	}
	return res, nil
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// submit POSTs one spec, honouring Retry-After on refusals.
func submit(ctx context.Context, client *http.Client, url string, rec *jobRecord) {
	body, err := json.Marshal(rec.Spec)
	if err != nil {
		rec.Err = err
		return
	}
	for attempt := 0; ; attempt++ {
		sent := time.Now()
		resp, err := client.Post(url+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			rec.Err = err
			return
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusCreated, http.StatusOK:
			rec.SubmitRTT = time.Since(sent)
			var st struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(msg, &st); err != nil || st.ID == "" {
				rec.Err = fmt.Errorf("submit: bad body %q", msg)
			}
			rec.ID = st.ID
			return
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			rec.Refusals++
			wait, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || wait < 1 {
				wait = 1
			}
			if attempt >= 20 || !sleepUntil(ctx, time.Now().Add(time.Duration(wait)*time.Second)) {
				rec.Err = fmt.Errorf("submit: refused %d times: %s", rec.Refusals, msg)
				return
			}
		default:
			rec.Err = fmt.Errorf("submit: %s: %s", resp.Status, msg)
			return
		}
	}
}

// fetch polls one job's result and reports whether it is settled.
func fetch(client *http.Client, url string, rec *jobRecord, traced bool) bool {
	resp, err := client.Get(url + "/jobs/" + rec.ID + "/result")
	if err != nil {
		rec.Err = err
		return true
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		rec.Err = err
	case resp.StatusCode == http.StatusAccepted:
		return false
	case resp.StatusCode != http.StatusOK:
		rec.Err = fmt.Errorf("result: %s: %s", resp.Status, body)
	default:
		rec.Received, rec.Body = time.Now(), body
	}
	if traced && rec.Err == nil {
		rec.Status, rec.Err = getStatus(client, url, rec.ID)
	}
	return true
}

func getStatus(client *http.Client, url, id string) (*jobStatus, error) {
	resp, err := client.Get(url + "/jobs/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	st := &jobStatus{}
	if err := json.NewDecoder(resp.Body).Decode(st); err != nil {
		return nil, fmt.Errorf("status of %s: %w", id, err)
	}
	return st, nil
}

// serveJobs is the number of jobs one serve-mix run submits.
func (b *bench) serveJobs() int {
	return max(b.cfg.ServeMinJobs, int(math.Ceil(serveRate*b.seconds.Seconds())))
}

func (b *bench) schedule() []arrival {
	return serveSchedule(b.seed, b.serveJobs(), b.cfg.ServeApps)
}

// serveMix starts the job service with an empty store and plays the
// seeded schedule against it.
func (b *bench) serveMix() error {
	var srv *server
	err := b.setUp(func() (func(), error) {
		var err error
		if srv, err = b.startServer(); err != nil {
			return nil, err
		}
		s := srv
		return func() { s.stop() }, nil
	})
	if err != nil {
		return err
	}
	sched := b.schedule()
	res, err := b.stream(srv.url, sched, false)
	st, serr := srv.stop()
	if err != nil {
		return err
	}
	if serr != nil {
		return serr
	}
	return b.serveMetrics(res, st)
}

// checkJobs counts every job and every refusal as operations, checks
// each result against the recorded CLI digest of its spec, and re-runs
// two specs on the CLI. It returns the simulated instructions the
// server ran for the stream: the recorded count of every app the
// stream's good results name, each app's specs sharing runs as they do
// in the server's run cache.
func (b *bench) checkJobs(res *streamResult) (uint64, error) {
	var instrs uint64
	counted := map[string]bool{}
	for i, rec := range res.Jobs {
		for r := 0; r < rec.Refusals; r++ {
			b.op(false, "job %d (%s): submission refused", i, rec.Spec.key())
		}
		if rec.Err != nil {
			b.op(false, "job %d (%s): %v", i, rec.Spec.key(), rec.Err)
			continue
		}
		if b.checkJobDigest(i, rec.Spec, rec.Body) && !counted[rec.Spec.App] {
			counted[rec.Spec.App] = true
			n, ok := b.dig.ServeInstrs[appKey(rec.Spec.Scale, rec.Spec.App)]
			if !ok {
				return 0, fmt.Errorf("digests.json has no instruction count for %s", appKey(rec.Spec.Scale, rec.Spec.App))
			}
			instrs += n
		}
	}
	b.checkAgainstCLI(res)
	return instrs, nil
}

// checkJobDigest counts one job result, failing it when its digest
// differs from the one recorded for its spec.
func (b *bench) checkJobDigest(i int, spec jobSpec, body []byte) bool {
	switch want, ok := b.dig.Serve[spec.key()]; {
	case !ok:
		return b.op(false, "job %d (%s): no recorded digest", i, spec.key())
	case want != reportDigest(body):
		return b.op(false, "job %d (%s): result digest %s, recorded %s", i, spec.key(), reportDigest(body), want)
	}
	return b.op(true, "")
}

// checkAgainstCLI re-runs the first two distinct specs of the stream on
// the CLI and compares bytes with the job results (docs/api.md's
// byte-identity contract), live rather than through recorded digests.
func (b *bench) checkAgainstCLI(res *streamResult) {
	seen := map[string]bool{}
	for _, rec := range res.Jobs {
		if len(seen) == 2 {
			return
		}
		if rec.Err != nil || seen[rec.Spec.key()] {
			continue
		}
		seen[rec.Spec.key()] = true
		out, _, err := runProc(b.root, b.vmsim, rec.Spec.cliArgs()...)
		b.op(err == nil && bytes.Equal(stripReport(out), rec.Body),
			"CLI bytes for %s differ from the job result (err %v)", rec.Spec.key(), err)
	}
}

// serveMetrics derives the end-to-end metrics of one stream, and
// rejects the run if the generator fell behind its own schedule.
// wall_s is the mean job latency: from the time a submit was due to the
// time its result body was received.
func (b *bench) serveMetrics(res *streamResult, srv procStats) error {
	if err := b.genHealth(res); err != nil {
		return err
	}
	instrs, err := b.checkJobs(res)
	if err != nil {
		return err
	}
	lat := latencies(res)
	if len(lat) == 0 {
		return fmt.Errorf("no job completed")
	}
	p90 := b.latency(lat)
	b.set("wall_s", "s", mean(lat)/1e3)
	b.set("cpu_s", "s", srv.CPU.Seconds())
	b.set("peak_rss_mb", "MB", float64(srv.MaxRSS)/1e6)
	b.set("host_ns_per_instr", "ns", float64(srv.CPU)/float64(instrs))
	repeats := 0
	for _, rec := range res.Jobs {
		if rec.Repeat {
			repeats++
		}
	}
	b.note("%d jobs at %.1f/s (open loop, %d repeats); latency from due time to result received; p90 has %d of %d samples beyond it",
		len(res.Jobs), serveRate, repeats, p90.Beyond, p90.N)
	b.note("serve-mix wall_s is the mean of %d job latencies; host_ns_per_instr is server CPU per simulated instruction (%d)",
		len(lat), instrs)
	return nil
}

// latency reports the median and p90 of job latencies in ms.
func (b *bench) latency(ms []float64) percentile {
	p90 := nearestRank(ms, 90)
	b.set("jobs.latency_p50_ms", "ms", nearestRank(ms, 50).Value)
	b.set("jobs.latency_p90_ms", "ms", p90.Value)
	return p90
}

// genHealth rejects a stream whose generator ran late against its own
// schedule.
func (b *bench) genHealth(res *streamResult) error {
	var lags []float64
	worst := time.Duration(0)
	for _, rec := range res.Jobs {
		lags = append(lags, float64(rec.Lag)/float64(time.Millisecond))
		worst = max(worst, rec.Lag)
	}
	p90 := nearestRank(lags, 90)
	b.note("generator lag: p50 %.3f ms, p90 %.3f ms, max %.3f ms over %d submissions",
		nearestRank(lags, 50).Value, p90.Value, float64(worst)/float64(time.Millisecond), len(lags))
	if p90.Value > float64(maxLagP90)/float64(time.Millisecond) || worst > maxLag {
		return fmt.Errorf("invalid run: the generator fell behind its schedule (p90 lag %.1f ms > %v or max %v > %v)",
			p90.Value, maxLagP90, worst, maxLag)
	}
	return nil
}

func msSince(from, to time.Time) float64 { return float64(to.Sub(from)) / float64(time.Millisecond) }

// latencies lists the stream's job latencies in ms: from the time each
// submit was due to the time its result body was received.
func latencies(res *streamResult) []float64 {
	var lat []float64
	for _, rec := range res.Jobs {
		if rec.Err == nil {
			lat = append(lat, msSince(res.Start.Add(rec.Due), rec.Received))
		}
	}
	return lat
}

// meanLatency is serve-mix's wall_s as a duration.
func meanLatency(res *streamResult) time.Duration {
	return time.Duration(mean(latencies(res)) * float64(time.Millisecond))
}

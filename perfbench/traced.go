package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"codesignvm/internal/experiments"
	"codesignvm/internal/jobs"
	"codesignvm/internal/obs"
)

// The traced runs. Each first measures the untraced workload once (the
// reference for the tracing overhead), then makes the top-level traced
// pass, whose spans partition the workload's work, then replays every
// layer on the workload's own inputs for the per-layer metrics.

func (b *bench) traceSweepCold() error { return b.traceSweep(false) }
func (b *bench) traceSweepWarm() error { return b.traceSweep(true) }

// traceSweep: the untraced reference is one vmsim sweep (cold: into an
// empty store; warm: against a store a set-up filled). The traced pass
// is workload generation, then on the cold workload one vmm span per
// grid cell through machine.RunConfig, then one experiments.<fig> span
// per figure through RunExperiment. Those read the store the reference
// run left, so on the cold workload the pass splits the sweep into its
// engine share (vmm) and the rest (store reads, rendering, Fig. 3's
// interpreter profile); the cost of publishing records is in the
// untraced wall clock only. On the warm workload every grid cell is a
// store read, and the vmm cells are replayed after the pass instead.
func (b *bench) traceSweep(warm bool) error {
	apps := sweepApps(b.seed, b.cfg.SweepApps)
	scale := sweepScale
	var ref []byte
	var store string
	err := b.setUp(func() (func(), error) {
		var err error
		if store, err = b.tempDir("store-"); err != nil {
			return nil, err
		}
		dir := store
		if !warm {
			return func() { os.RemoveAll(dir) }, nil
		}
		out, _, err := b.vm(sweepArgs(scale, apps, store)...)
		if !b.checkSweep(&ref, out, apps, err, "store fill") {
			return nil, fmt.Errorf("filling the store failed")
		}
		return func() { os.RemoveAll(dir) }, nil
	})
	if err != nil {
		return err
	}
	out, st, err := b.vm(sweepArgs(scale, apps, store)...)
	if !b.checkSweep(&ref, out, apps, err, "untraced reference sweep") {
		return fmt.Errorf("the untraced reference sweep failed")
	}
	// The reference's end-to-end figures are printed with the traced
	// result, so it carries the wall clock its overhead is measured
	// against.
	if err := b.sweepMetrics([]procStats{st}, apps); err != nil {
		return err
	}

	tr := newTracer()
	keys := make([]progKey, len(apps))
	for i, a := range apps {
		keys[i] = progKey{a, scale}
	}
	var progs []program
	o := obs.NewObserver(nil)
	opt := experiments.Options{Scale: scale, Apps: apps, Store: store, Obs: o}
	figMs := map[string]time.Duration{}
	var report []byte
	wall, err := b.partition(tr, func() error {
		var err error
		if progs, err = b.genPrograms(tr, -1, keys); err != nil {
			return err
		}
		if !warm {
			if _, err := b.vmmCells(tr, -1, progs); err != nil {
				return err
			}
		}
		report, err = b.experimentSpans(tr, -1, experiments.ExpandExperiment("sweep"), opt, "Word", figMs)
		return err
	})
	if err != nil {
		return err
	}
	b.overhead(wall, st.Wall)
	b.op(sameReport(ref, report), "in-process sweep report differs from the CLI's")
	hits, misses := storeCounts(o)
	if err := b.experimentMetrics(figMs, hits, misses, store); err != nil {
		return err
	}
	if warm {
		if err := b.replayVMM(tr, progs); err != nil {
			return err
		}
	}
	if err := b.replayAll(tr, progs); err != nil {
		return err
	}
	var specs []jobs.Spec
	for _, exp := range experiments.ExpandExperiment("sweep") {
		specs = append(specs, jobs.Spec{Exp: exp, Apps: apps, Scale: scale})
	}
	if err := b.jobsInProcess(tr, specs, store, ref); err != nil {
		return err
	}
	name := "sweep-cold"
	if warm {
		name = "sweep-warm"
	}
	return b.saveTrace(tr, name)
}

// replayVMM runs the vmm grid cells of progs outside the partition, for
// workloads on which the store answers them.
func (b *bench) replayVMM(tr *tracer, progs []program) error {
	root := tr.open("replay vmm", -1)
	defer tr.close(root)
	_, err := b.vmmCells(tr, root, progs)
	return err
}

// replayAll drives the layers below vmm and the code-cache persist path
// on the first cfg.ReplayPrograms programs.
func (b *bench) replayAll(tr *tracer, progs []program) error {
	progs = progs[:min(len(progs), b.cfg.ReplayPrograms)]
	if err := b.layerReplays(tr, progs); err != nil {
		return err
	}
	return b.codecacheReplay(tr, progs[0])
}

// jobsInProcess drives the jobs layer in-process on the sweep's own
// figures: one job per figure, all due at once, against the store the
// sweep filled. The run cache is reset first, as a fresh service
// process starts with an empty one, so the jobs read the store. The
// jobs' reports must concatenate to the sweep's report.
func (b *bench) jobsInProcess(tr *tracer, specs []jobs.Spec, store string, want []byte) error {
	root := tr.open("jobs", -1)
	defer tr.close(root)
	experiments.ResetRunCacheForTest()
	m, err := jobs.NewManager(jobs.Config{Store: store})
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Drain(ctx)
	}()
	due := time.Now()
	var js []*jobs.Job
	var submit, lag []float64
	refused := 0
	for _, s := range specs {
		for {
			t0 := time.Now()
			j, _, err := m.Submit(s)
			if errors.Is(err, jobs.ErrQueueFull) {
				refused++
				time.Sleep(time.Second)
				continue
			}
			if err != nil {
				return err
			}
			lag = append(lag, msSince(due, t0))
			submit = append(submit, msSince(t0, time.Now()))
			js = append(js, j)
			break
		}
	}
	// One waiter per job, so each receipt is seen when it happens, not
	// after earlier jobs' receipts.
	seen := make([]time.Time, len(js))
	var wg sync.WaitGroup
	for i, j := range js {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-j.Done()
			seen[i] = time.Now()
		}()
	}
	wg.Wait()
	var report []byte
	var recs []jobTimes
	for i, j := range js {
		txt, errText, state := j.Result()
		if !b.op(state == jobs.StateDone, "in-process job %s: %v %s", j.Spec().Exp, state, errText) {
			continue
		}
		report = append(report, txt...)
		st := j.Status(false)
		jt, err := parseJobTimes(st.Created, st.Started, st.Finished, seen[i])
		if err != nil {
			return err
		}
		if p := st.Progress; p != nil {
			jt.hits, jt.misses = p.StoreHits, p.StoreMisses
		}
		tr.add("jobs "+j.Spec().Exp, root, jt.created, seen[i])
		recs = append(recs, jt)
	}
	b.op(sameReport(want, report), "in-process jobs' reports differ from the sweep's")
	b.jobsMetrics(recs, submit, lag, refused)
	var lat []float64
	for _, r := range recs {
		lat = append(lat, msSince(due, r.received))
	}
	b.latency(lat)
	b.note("jobs layer driven in-process: %d specs (one per figure) due at once against the sweep's store", len(specs))
	return nil
}

// jobTimes is one job's service-side timeline plus the client's
// receipt.
type jobTimes struct {
	created, started, finished, received time.Time
	hits, misses                         uint64
}

func parseJobTimes(created, started, finished string, received time.Time) (jobTimes, error) {
	jt := jobTimes{received: received}
	for _, f := range []struct {
		s   string
		dst *time.Time
	}{{created, &jt.created}, {started, &jt.started}, {finished, &jt.finished}} {
		t, err := time.Parse(time.RFC3339Nano, f.s)
		if err != nil {
			return jt, fmt.Errorf("job timestamp %q: %w", f.s, err)
		}
		*f.dst = t
	}
	return jt, nil
}

// jobsMetrics reports the jobs layer: medians of the submit round trip,
// the queue wait and run time from the service's own timestamps, the
// lag from finish to the client's receipt and the generator's lateness,
// plus refusals and the jobs' store hit ratio.
func (b *bench) jobsMetrics(recs []jobTimes, submit, lag []float64, refused int) {
	var wait, run, fetch []float64
	var hits, lookups float64
	for _, r := range recs {
		wait = append(wait, msSince(r.created, r.started))
		run = append(run, msSince(r.started, r.finished))
		fetch = append(fetch, msSince(r.finished, r.received))
		hits += float64(r.hits)
		lookups += float64(r.hits + r.misses)
	}
	b.set("jobs.submit_ms", "ms", median(submit))
	b.set("jobs.queue_wait_ms", "ms", median(wait))
	b.set("jobs.run_ms", "ms", median(run))
	b.set("jobs.fetch_lag_ms", "ms", median(fetch))
	b.set("jobs.refused", "count", float64(refused))
	b.set("jobs.store_hit_ratio", "ratio", hits/math.Max(lookups, 1))
	b.set("gen.lag_ms", "ms", median(lag))
}

// traceServeMix: the untraced reference is the stream itself against a
// fresh server. A second fresh server then takes the same stream with
// each finished job's status fetched (the jobs metrics). The traced
// pass replays the stream in-process and in order: workload generation,
// then one experiments.<exp> span per job through RunExperiment
// against a fresh store, as the service's workers would run them one
// at a time. The layers are then replayed on the stream's programs.
func (b *bench) traceServeMix() error {
	sched := b.schedule()
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
	ref, err := b.stream(srv.url, sched, false)
	st, serr := srv.stop()
	if err = errors.Join(err, serr); err != nil {
		return err
	}
	if err := b.serveMetrics(ref, st); err != nil {
		return err
	}
	if srv, err = b.startServer(); err != nil {
		return err
	}
	res, err := b.stream(srv.url, sched, true)
	_, serr = srv.stop()
	if err = errors.Join(err, serr); err != nil {
		return err
	}
	if err := b.genHealth(res); err != nil {
		return err
	}
	if _, err := b.checkJobs(res); err != nil {
		return err
	}
	var recs []jobTimes
	var submit, lag []float64
	refused := 0
	for _, rec := range res.Jobs {
		refused += rec.Refusals
		lag = append(lag, ms(rec.Lag))
		if rec.Err != nil || rec.Status == nil {
			continue
		}
		submit = append(submit, ms(rec.SubmitRTT))
		jt, err := parseJobTimes(rec.Status.Created, rec.Status.Started, rec.Status.Finished, rec.Received)
		if err != nil {
			return err
		}
		if p := rec.Status.Progress; p != nil {
			jt.hits, jt.misses = p.StoreHits, p.StoreMisses
		}
		recs = append(recs, jt)
	}
	b.jobsMetrics(recs, submit, lag, refused)
	b.overhead(meanLatency(res), meanLatency(ref))

	tr := newTracer()
	var keys []progKey
	seen := map[progKey]bool{}
	for _, a := range sched {
		k := progKey{a.Spec.App, a.Spec.Scale}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	store, err := b.tempDir("trace-store-")
	if err != nil {
		return err
	}
	figMs := map[string]time.Duration{}
	var progs []program
	var hits, misses float64
	experiments.ResetRunCacheForTest()
	_, err = b.partition(tr, func() error {
		var err error
		if progs, err = b.genPrograms(tr, -1, keys); err != nil {
			return err
		}
		for i, a := range sched {
			// A private observer per job, as the service gives each
			// job: an observer's attribution spec is set by the first
			// experiment that enables it.
			o := obs.NewObserver(nil)
			opt := experiments.Options{Scale: a.Spec.Scale, Apps: a.Spec.Apps, Store: store, Obs: o}
			out, err := b.experimentSpans(tr, -1, []string{a.Spec.Exp}, opt, a.Spec.App, figMs)
			if err != nil {
				return fmt.Errorf("job %d: %w", i, err)
			}
			h, m := storeCounts(o)
			hits, misses = hits+h, misses+m
			b.checkJobDigest(i, a.Spec, out)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := b.experimentMetrics(figMs, hits, misses, store); err != nil {
		return err
	}
	if err := b.replayVMM(tr, progs[:min(len(progs), b.cfg.ReplayPrograms)]); err != nil {
		return err
	}
	if err := b.replayAll(tr, progs); err != nil {
		return err
	}
	return b.saveTrace(tr, "serve-mix")
}

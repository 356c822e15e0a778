// Command obsserve runs one simulated migration scenario (or a strategy
// campaign) with the live telemetry plane attached and serves it over HTTP:
//
//	GET /metrics   Prometheus text snapshot (counters, gauges, histograms,
//	               device busy-fractions, stream meta-metrics)
//	GET /stream    Server-Sent Events: live span/counter/gauge/usage events
//	               (or campaign rollups with -campaign), one JSON WireEvent
//	               per "data:" line, terminated by a "done" event
//	GET /trace     Chrome trace-event JSON of the run so far
//	GET /status    run state: virtual time, events, stream delivery/drops
//	GET /healthz   liveness probe
//
// The engine is driven by a throttled clock adapter: virtual time advances in
// -step slices, each followed by a wall sleep of step/-accel — so a run that
// takes 1.3 virtual seconds at -accel 10 plays out over ~130 wall
// milliseconds per virtual step ratio, slow enough to watch live.
//
// Examples:
//
//	obsserve -app LU -class S -np 8 -ppn 2 -accel 20            # watch a migration
//	obsserve -app LU -class S -np 8 -ppn 2 -fault src-crash     # watch a recovery
//	obsserve -campaign 2 -class S -np 8 -ppn 2                  # watch strategies race
//	curl -N http://localhost:8077/stream                        # the live feed
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"ibmig/internal/cluster"
	"ibmig/internal/core"
	"ibmig/internal/cr"
	"ibmig/internal/exp"
	"ibmig/internal/fault"
	"ibmig/internal/npb"
	"ibmig/internal/obs"
	"ibmig/internal/sim"
)

func main() {
	app := flag.String("app", "LU", "application: LU, BT or SP")
	class := flag.String("class", "S", "NPB class: S, W, A, B or C")
	np := flag.Int("np", 8, "number of MPI processes")
	ppn := flag.Int("ppn", 2, "processes per node")
	seed := flag.Int64("seed", 1, "simulation seed")
	triggerFrac := flag.Float64("trigger", 0.33, "migration trigger point as a fraction of estimated runtime")
	faultKind := flag.String("fault", "", "inject a fault during the migration: "+fault.MigrationFaultNames())
	faultPhase := flag.Int("fault-phase", 2, "migration phase (1-4) the fault lands at")
	campaign := flag.Int("campaign", 0, "run a strategy campaign with this many failures instead of a single migration")

	addr := flag.String("addr", "localhost:8077", "HTTP listen address")
	accel := flag.Float64("accel", 10, "virtual-over-wall acceleration factor (1 = real time)")
	step := flag.Duration("step", 5*time.Millisecond, "virtual time advanced per pacing slice")
	ring := flag.Int("ring", 1<<16, "per-subscriber event ring capacity")
	heartbeat := flag.Uint64("heartbeat", 1<<12, "engine events between stream heartbeats")
	startDelay := flag.Duration("start-delay", 0, "wall delay before the engine starts (lets consumers attach first)")
	linger := flag.Duration("linger", 0, "keep serving this long after the run ends, then exit")
	maxWall := flag.Duration("max-wall", 10*time.Minute, "hard wall-clock bound on the paced run")
	flightOut := flag.String("flight-out", "", "write the flight recorder dump (JSON) here on exit")
	flightK := flag.Int("flight-k", 64, "flight recorder ring size per actor")
	flag.Parse()
	log.SetPrefix("obsserve: ")
	log.SetFlags(0)
	if *accel <= 0 {
		log.Fatal("-accel must be positive")
	}
	if *np%*ppn != 0 {
		log.Fatal("np must be a multiple of ppn")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on http://%s", ln.Addr())

	if *campaign > 0 {
		serveCampaign(ln, *campaign, *app, *class, *np, *ppn, *seed, *startDelay, *linger)
		return
	}
	serveScenario(ln, scenarioConfig{
		app: *app, class: *class, np: *np, ppn: *ppn, seed: *seed,
		triggerFrac: *triggerFrac, faultKind: *faultKind, faultPhase: *faultPhase,
		accel: *accel, step: sim.Duration(*step), ring: *ring, heartbeat: *heartbeat,
		startDelay: *startDelay, linger: *linger, maxWall: *maxWall,
		flightOut: *flightOut, flightK: *flightK,
	})
}

type scenarioConfig struct {
	app, class         string
	np, ppn            int
	seed               int64
	triggerFrac        float64
	faultKind          string
	faultPhase         int
	accel              float64
	step               sim.Duration
	ring               int
	heartbeat          uint64
	startDelay, linger time.Duration
	maxWall            time.Duration
	flightOut          string
	flightK            int
}

// serveScenario runs one migration scenario under the paced clock and serves
// its live telemetry. The engine owns one goroutine; every HTTP client gets
// its own subscriber ring, and a dedicated pump subscriber feeds the Mirror
// that /metrics and /trace snapshot — handlers never touch the Collector.
func serveScenario(ln net.Listener, cfg scenarioConfig) {
	w := npb.New(npb.Kernel(cfg.app), npb.Class(cfg.class[0]), cfg.np)
	e := sim.NewEngine(cfg.seed)
	spares := 1
	opts := core.Options{}
	if cfg.faultKind != "" {
		spares = 2
		opts.PhaseDeadline = 5 * time.Second
	}
	c := cluster.New(e, cluster.Config{
		ComputeNodes: cfg.np / cfg.ppn,
		SpareNodes:   spares,
		PVFSServers:  4,
	})
	res := npb.NewResult(w.Ranks)
	fw := core.Launch(c, w, cfg.ppn, res, opts)
	jm := fw.JobManager()
	col := obs.Enable(e)
	fr := obs.NewFlightRecorder(cfg.flightK)
	col.AttachFlight(fr)
	e.SetFlushHook(cfg.heartbeat, func(t sim.Time) { col.Heartbeat(t, e.Events()) })

	src := c.Compute[len(c.Compute)/2].Name
	if cfg.faultKind != "" {
		inj := fault.NewInjector(c)
		inj.Bind(fw)
		sp, err := fault.MigrationFault(cfg.faultKind, src, c.Spares[0].Name)
		if err != nil {
			log.Fatal(err)
		}
		inj.AtPhase(0, cfg.faultPhase, sp)
		log.Printf("armed fault %v at migration phase %d", sp, cfg.faultPhase)
	}

	e.Spawn("obsserve.ctl", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		if cfg.faultKind != "" {
			if _, err := fw.Checkpoint(p, cr.PVFS); err != nil {
				log.Println("pre-fault checkpoint:", err)
			}
		}
		p.Sleep(sim.Duration(float64(w.EstimatedRuntime()) * cfg.triggerFrac))
		fw.TriggerMigration(p, src).Wait(p)
		for !fw.W.Done() && !jm.JobLost {
			p.Sleep(time.Millisecond)
		}
		e.Stop()
	})

	// The Mirror pump: one subscriber drained on its own goroutine.
	mirror := obs.NewMirror()
	pump := col.Subscribe(cfg.ring)
	pumpDone := make(chan struct{})
	go func() {
		defer close(pumpDone)
		buf := make([]obs.Event, 0, 512)
		for {
			buf = pump.Drain(buf[:0])
			mirror.ApplyAll(buf)
			mirror.SetDropped(pump.Dropped())
			if len(buf) == 0 {
				if pump.Closed() {
					return
				}
				<-pump.Notify()
			}
		}
	}()

	runOver := make(chan struct{})
	// The paced drive loop: advance one virtual step, sleep the matching wall
	// slice. This is the real-time/accelerated clock adapter — the engine
	// still executes every event in order, just throttled against the wall.
	go func() {
		time.Sleep(cfg.startDelay)
		log.Printf("%s: %d ranks, est. runtime %.2fs, accel %gx",
			w.Name(), w.Ranks, w.EstimatedRuntime().Seconds(), cfg.accel)
		wallStart := time.Now()
		pace := time.Duration(float64(cfg.step) / cfg.accel)
		for {
			if err := e.RunUntil(e.Now().Add(cfg.step)); err != nil {
				log.Println("simulation failed:", err)
				break
			}
			if e.Stopped() {
				break
			}
			if _, ok := e.NextEventTime(); !ok {
				break
			}
			if time.Since(wallStart) > cfg.maxWall {
				log.Printf("max-wall %v reached at t=%.2fs, stopping", cfg.maxWall, e.Now().Seconds())
				break
			}
			time.Sleep(pace)
		}
		e.Shutdown()
		col.Finish(e.Now())
		col.Unsubscribe(pump)
		log.Printf("run ended at t=%.2fs after %d events (job-lost=%v done=%v)",
			e.Now().Seconds(), e.Events(), jm.JobLost, fw.W.Done())
		if cfg.flightOut != "" {
			f, err := os.Create(cfg.flightOut)
			if err == nil {
				err = fr.WriteDump(f, e.Now())
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				log.Println("flight-out:", err)
			} else {
				log.Printf("wrote flight dump to %s", cfg.flightOut)
			}
		}
		close(runOver)
	}()

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		done := false
		select {
		case <-runOver:
			done = true
		default:
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"done":           done,
			"sim_ns":         int64(mirror.LastT()),
			"stream_events":  mirror.Events(),
			"stream_dropped": pump.Dropped(),
			"flight_events":  fr.Events(),
		})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		mirror.PrometheusText(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		mirror.ChromeTrace(w)
	})
	mux.HandleFunc("/stream", func(w http.ResponseWriter, r *http.Request) {
		streamEvents(w, r, col, cfg.ring, runOver)
	})

	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	<-runOver
	<-pumpDone
	time.Sleep(cfg.linger)
	srv.Close()
}

// streamEvents serves one SSE client: its own subscriber ring drained into
// the response, flushed per batch, terminated by a "done" event once the run
// is over and the ring is empty.
func streamEvents(w http.ResponseWriter, r *http.Request, col *obs.Collector, ring int, runOver <-chan struct{}) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	fmt.Fprint(w, ": ibmig live telemetry\n\n")
	fl.Flush()
	sub := col.Subscribe(ring)
	defer col.Unsubscribe(sub)
	buf := make([]obs.Event, 0, 512)
	finish := func() {
		for _, ev := range sub.Drain(buf[:0]) {
			obs.WriteSSE(w, ev.Wire())
		}
		obs.WriteSSE(w, obs.WireEvent{Kind: "done", TNS: int64(col.LastTime())})
		fl.Flush()
	}
	for {
		buf = sub.Drain(buf[:0])
		for _, ev := range buf {
			if obs.WriteSSE(w, ev.Wire()) != nil {
				return
			}
		}
		if len(buf) > 0 {
			fl.Flush()
			continue
		}
		select {
		case <-sub.Notify():
		case <-runOver:
			finish()
			return
		case <-r.Context().Done():
			return
		}
	}
}

// serveCampaign runs exp.RunCampaign and serves its rollup stream: every
// ArmUpdate is broadcast to /stream clients as a "campaign" wire event, and
// /metrics exports the latest rollup per strategy as labelled gauges.
func serveCampaign(ln net.Listener, failures int, app, class string, np, ppn int, seed int64, startDelay, linger time.Duration) {
	spec := exp.CampaignSpec{
		Kernel:   npb.Kernel(app),
		Scale:    exp.Scale{Class: npb.Class(class[0]), Ranks: np, PPN: ppn, Seed: seed},
		Failures: failures,
	}
	h := &campaignHub{last: map[string]exp.ArmUpdate{}}
	over := make(chan struct{})
	go func() {
		time.Sleep(startDelay)
		log.Printf("campaign: %s.%c np=%d failures=%d", app, class[0], np, failures)
		result := exp.RunCampaign(spec, h.update)
		if best := result.Best(); best != nil {
			log.Printf("campaign done: best %s at %.1f%% goodput", best.Strategy, best.GoodputPct)
		} else {
			log.Print("campaign done: every arm lost the job")
		}
		h.finish()
		close(over)
	}()

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"done": h.done(), "arms": h.snapshot()})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		h.prometheus(w)
	})
	mux.HandleFunc("/stream", h.stream)

	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	<-over
	time.Sleep(linger)
	srv.Close()
}

// campaignHub fans campaign rollups out to SSE clients and keeps the latest
// update per strategy for /metrics.
type campaignHub struct {
	mu     sync.Mutex
	subs   map[chan obs.WireEvent]struct{}
	last   map[string]exp.ArmUpdate
	closed bool
}

func wireUpdate(u exp.ArmUpdate) obs.WireEvent {
	return obs.WireEvent{
		Kind:        "campaign",
		TNS:         u.SimNS,
		Strategy:    u.Strategy,
		ProgressPct: u.ProgressPct,
		GoodputPct:  u.GoodputSoFarPct,
		MTTRNS:      u.MTTRSoFarNS,
		Attempts:    u.Attempts,
		Done:        u.Done,
	}
}

// update implements the RunCampaign callback; it is called concurrently
// from the arm engines' goroutines.
func (h *campaignHub) update(u exp.ArmUpdate) {
	ev := wireUpdate(u)
	h.mu.Lock()
	h.last[u.Strategy] = u
	for ch := range h.subs {
		select {
		case ch <- ev:
		default: // slow client: drop rather than stall the arm
		}
	}
	h.mu.Unlock()
}

func (h *campaignHub) finish() {
	h.mu.Lock()
	h.closed = true
	for ch := range h.subs {
		close(ch)
	}
	h.subs = nil
	h.mu.Unlock()
}

func (h *campaignHub) done() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed
}

func (h *campaignHub) snapshot() map[string]exp.ArmUpdate {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]exp.ArmUpdate, len(h.last))
	for k, v := range h.last {
		out[k] = v
	}
	return out
}

func (h *campaignHub) prometheus(w http.ResponseWriter) {
	for _, metric := range []struct {
		name string
		val  func(u exp.ArmUpdate) float64
	}{
		{"ibmig_campaign_progress_pct", func(u exp.ArmUpdate) float64 { return u.ProgressPct }},
		{"ibmig_campaign_goodput_pct", func(u exp.ArmUpdate) float64 { return u.GoodputSoFarPct }},
		{"ibmig_campaign_mttr_ns", func(u exp.ArmUpdate) float64 { return float64(u.MTTRSoFarNS) }},
		{"ibmig_campaign_attempts", func(u exp.ArmUpdate) float64 { return float64(u.Attempts) }},
	} {
		fmt.Fprintf(w, "# TYPE %s gauge\n", metric.name)
		for name, u := range h.snapshot() {
			fmt.Fprintf(w, "%s{strategy=%q} %g\n", metric.name, name, metric.val(u))
		}
	}
}

func (h *campaignHub) stream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	fmt.Fprint(w, ": ibmig campaign rollups\n\n")
	fl.Flush()
	ch := make(chan obs.WireEvent, 256)
	h.mu.Lock()
	// Replay the latest rollup per strategy so a late subscriber sees the
	// current standings immediately instead of waiting for the next poll.
	replay := make([]obs.WireEvent, 0, len(h.last))
	for _, u := range h.last {
		replay = append(replay, wireUpdate(u))
	}
	closed := h.closed
	if !closed {
		if h.subs == nil {
			h.subs = map[chan obs.WireEvent]struct{}{}
		}
		h.subs[ch] = struct{}{}
	}
	h.mu.Unlock()
	sort.Slice(replay, func(i, j int) bool { return replay[i].Strategy < replay[j].Strategy })
	for _, ev := range replay {
		if obs.WriteSSE(w, ev) != nil {
			return
		}
	}
	fl.Flush()
	if closed {
		obs.WriteSSE(w, obs.WireEvent{Kind: "done"})
		fl.Flush()
		return
	}
	defer func() {
		h.mu.Lock()
		delete(h.subs, ch)
		h.mu.Unlock()
	}()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				obs.WriteSSE(w, obs.WireEvent{Kind: "done"})
				fl.Flush()
				return
			}
			if obs.WriteSSE(w, ev) != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

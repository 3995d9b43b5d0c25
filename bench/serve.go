package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"haste/internal/core"
	"haste/internal/instio"
	"haste/internal/obs"
	"haste/internal/workload"
)

// The serve-* workloads drive one haste-serve process on loopback from a
// single client process holding at most serveClients connections. Every
// serve workload sends the same seeded open-loop mix of three request
// classes, then measures capacity with a closed loop of the class it is
// scored on, cold or warm. Capacity is a per-layer metric: at saturation
// the two vCPUs of the reference box are shared with its neighbours, and
// its ten-run spread (12-26%) reached the largest bound an end-to-end
// metric may have, while the open-loop latency's stayed at 3-11%.
// The classes:
//
//	cold  — POST /v1/schedule of a never-seen paper-default instance
//	        (decode, hash, compile and greedy on the server);
//	warm  — byte-identical re-sends from a pool small enough to stay in
//	        the compiled-problem cache (greedy only);
//	patch — PATCH /v1/session/{id} with one completion and one arrival on
//	        a clustered FleetScale(200) session (delta patch and a warm-
//	        started solve); one session per connection.
//
// The open loop releases requests at a fixed rate (openRate), evenly
// spaced, each of a class drawn from the seed with equal weights. Its
// latency is timed from each request's due time, so a stall delays every
// later request; the generator's own lateness is reported and a run whose
// generator fell behind is invalid.
//
// The mix is synthetic: the repository holds no record of real traffic.
// Equal class weights give each class's latency percentiles the same
// number of samples. The rate is openUtil of the capacity the mix would
// have on serveClients connections if each class took its serviceMS, so
// an arrival seldom finds both connections busy: open-loop latency reads
// as service time, HTTP round trip and the interference between classes,
// and saturation is left to the closed loop.
//
// Patch requests ride in every open loop but score no workload of their
// own: on the shared 2-vCPU reference box their ~1.7 ms latency and
// ~2,000/s capacity swung by 25% and 44% across ten runs, past the largest
// bound a metric may have. The incremental path is measured per layer
// (serve.server_ms.patch, serve.patch_apply_ms, loadgen.patch_p50_ms,
// core.warm_reused) on both serve workloads.

type class int

const (
	classCold class = iota
	classWarm
	classPatch
)

var classNames = [...]string{"cold", "warm", "patch"}

// serviceMS are the per-class service times the open-loop rate is derived
// from: the median server-side elapsed_ms of each class (serve.server_ms.*
// of a traced serve-cold run, seed 1) on the 2-vCPU reference box.
var serviceMS = [...]float64{classCold: 3.4, classWarm: 1.5, classPatch: 0.3}

// openRate is the open loop's arrival rate in requests per second, all
// classes together: openUtil of serveClients connections' capacity at the
// mean service time of the equal-weight mix (about 115 requests/s).
func openRate() float64 {
	mean := (serviceMS[classCold] + serviceMS[classWarm] + serviceMS[classPatch]) / 3
	return openUtil * serveClients / (mean / 1000)
}

const (
	serveClients = 2                // connections: nproc of the 2-vCPU reference box
	openUtil     = 0.1              // open-loop load as a share of the mix's capacity
	openShare    = 0.6              // share of the budget run open loop; the rest is closed loop
	openOverrun  = 10 * time.Second // an arrival not sent this long after the last due time fails unsent
	replyTimeout = 10 * time.Second // a request without a reply by then fails
	warmPool     = 16               // warm instances, sent round-robin: each is re-sent long before 64 other keys could evict it
	sessionTasks = 200              // tasks of each session's FleetScale instance
	coldClosed   = 300              // fresh instances per closed-loop second (the loop stops early if they run out)
	lagLimitMS   = 5.0              // generator lateness p90 beyond which a run is invalid
)

// sessionGen generates one session's PATCH stream and mirrors the server's
// dense task order (completions swap-remove, arrivals append), so the
// final revision can be checked against a from-scratch solve.
type sessionGen struct {
	file    instio.File // the instance the session was created from
	live    []liveTask
	nextRef int64
	rng     *rand.Rand
}

type liveTask struct {
	ref  int64
	task instio.FileTask
}

func newSessionGen(f instio.File, seed int64) *sessionGen {
	g := &sessionGen{file: f, rng: rand.New(rand.NewSource(seed))}
	for j, t := range f.Tasks {
		g.live = append(g.live, liveTask{ref: int64(j + 1), task: t})
	}
	g.nextRef = int64(len(f.Tasks) + 1)
	return g
}

// patch draws the next mutation batch (complete one live task, add one
// near a random charger) and returns its body and the ref the server
// must assign to the added task.
func (g *sessionGen) patch(trace bool) ([]byte, int64) {
	d := g.rng.Intn(len(g.live))
	done := g.live[d].ref
	last := len(g.live) - 1
	g.live[d] = g.live[last]
	g.live = g.live[:last]

	c := g.file.Charger[g.rng.Intn(len(g.file.Charger))]
	r := g.file.Params.Radius
	rel := g.rng.Intn(13)
	t := instio.FileTask{
		X:       c.X + (g.rng.Float64()*2-1)*1.4*r,
		Y:       c.Y + (g.rng.Float64()*2-1)*1.4*r,
		PhiDeg:  g.rng.Float64() * 360,
		Release: rel,
		End:     rel + 4 + g.rng.Intn(9),
		Energy:  200 + g.rng.Float64()*600,
		Weight:  1.0 / sessionTasks,
	}
	ref := g.nextRef
	g.nextRef++
	g.live = append(g.live, liveTask{ref: ref, task: t})
	body, err := json.Marshal(map[string]any{
		"trace": trace,
		"mutations": []map[string]any{
			{"op": "complete", "ref": done},
			{"op": "add", "task": t},
		},
	})
	if err != nil {
		panic(err) // plain maps of numbers and strings always encode
	}
	return body, ref
}

// instance is the mirrored task set as an instance file.
func (g *sessionGen) instance() instio.File {
	f := g.file
	f.Tasks = make([]instio.FileTask, len(g.live))
	for j, lt := range g.live {
		f.Tasks[j] = lt.task
	}
	return f
}

// serveInputs are every input of a serve run, generated from the seed.
type serveInputs struct {
	cold     [][]byte // distinct instances, in send order
	warm     [][]byte
	sessions [2]instio.File
	arrivals []arrival
	gens     [2]*sessionGen
}

type arrival struct {
	due   time.Duration
	cls   class
	item  int // cold or warm instance index
	sess  int // patch: session index; seq orders the session's patches
	seq   int
	body  []byte // patch body
	ref   int64  // patch: ref the add must get
	trace bool
}

func encodeInstance(cfg workload.Config, seed int64) (instio.File, []byte) {
	in := cfg.Generate(rand.New(rand.NewSource(seed)))
	f := instio.FromInstance(in, "")
	b, err := json.Marshal(f)
	if err != nil {
		panic(err) // a generated instance has only finite numbers
	}
	return f, b
}

// makeServeInputs generates the instances and the open-loop schedule, and
// for a cold-scored run the fresh instances of the closed loop.
// With traced set, every other open-loop request asks for its trace.
func makeServeInputs(seed int64, scored class, open, closed time.Duration, traced bool) *serveInputs {
	in := &serveInputs{}
	master := rand.New(rand.NewSource(seed))
	for i := 0; i < warmPool; i++ {
		_, b := encodeInstance(workload.Default(), master.Int63())
		in.warm = append(in.warm, b)
	}
	for s := range in.sessions {
		in.sessions[s], _ = encodeInstance(workload.FleetScale(sessionTasks), master.Int63())
		in.gens[s] = newSessionGen(in.sessions[s], master.Int63())
	}
	sched := rand.New(rand.NewSource(master.Int63()))
	coldSeed := master.Int63()
	patches, warmNext := 0, 0
	seqs := [2]int{}
	rate := openRate()
	for i := 0; ; i++ {
		t := time.Duration(float64(i+1) / rate * float64(time.Second))
		if t > open {
			break
		}
		a := arrival{due: t, cls: class(sched.Intn(3)), trace: traced && i%2 == 0}
		switch a.cls {
		case classCold:
			a.item = len(in.cold)
			_, b := encodeInstance(workload.Default(), coldSeed+int64(a.item))
			in.cold = append(in.cold, b)
		case classWarm:
			a.item = warmNext % warmPool
			warmNext++
		case classPatch:
			a.sess = patches % 2
			a.seq = seqs[a.sess]
			seqs[a.sess]++
			patches++
			a.body, a.ref = in.gens[a.sess].patch(a.trace)
		}
		in.arrivals = append(in.arrivals, a)
	}
	if scored == classCold {
		for i := 0; i < int(closed.Seconds()*coldClosed); i++ {
			_, b := encodeInstance(workload.Default(), coldSeed+int64(len(in.cold)))
			in.cold = append(in.cold, b)
		}
	}
	return in
}

func scheduleBody(inst []byte, trace bool) []byte {
	return fmt.Appendf(nil, `{"colors":1,"trace":%t,"instance":%s}`, trace, inst)
}

// server is one running haste-serve process.
type server struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{}
}

func startServer(e *env) (*server, error) {
	cmd := exec.Command(filepath.Join(e.Bin, "haste-serve"),
		"--addr", "127.0.0.1:0")
	cmd.Dir = e.Work
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	r := bufio.NewReader(stdout)
	line, err := r.ReadString('\n')
	if err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("haste-serve did not start: %v", err)
	}
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "haste-serve listening on ")
	if !ok {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("unexpected haste-serve banner %q", line)
	}
	s := &server{cmd: cmd, base: "http://" + addr, drained: make(chan struct{})}
	go func() {
		_, _ = io.Copy(io.Discard, r)
		close(s.drained)
	}()
	return s, nil
}

// stop drains the server with SIGTERM, waits for it to exit and returns
// its peak RSS, read while it still runs: its rusage would also count the
// load generator's own peak at the time it started the server.
func (s *server) stop() (float64, error) {
	rss := vmHWMMB(s.cmd.Process.Pid)
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	<-s.drained
	if err := s.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("haste-serve exit: %w", err)
	}
	if rss == 0 {
		rss = peakRSSMB(s.cmd)
	}
	return rss, nil
}

// client is the load generator's HTTP side: one keep-alive pool of at most
// serveClients connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: replyTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     serveClients,
			MaxIdleConnsPerHost: serveClients,
			DisableCompression:  true,
		},
	}}
}

// reply is the subset of the service's response fields the checks read.
type reply struct {
	Status     int         `json:"-"`
	SessionID  string      `json:"session_id"`
	Cache      string      `json:"cache"`
	RUtility   float64     `json:"r_utility"`
	ElapsedMS  float64     `json:"elapsed_ms"`
	Refs       []int64     `json:"refs"`
	Tasks      int         `json:"tasks"`
	WarmReused int         `json:"warm_reused"`
	Trace      []*obs.Node `json:"trace"`
}

// roundTrip sends one request and returns the status, the body and the
// time the body had fully arrived (before the client spends time decoding
// it).
func (c *client) roundTrip(method, path string, body []byte) (int, []byte, time.Time, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, time.Now(), err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Now(), err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, time.Now(), err
}

// do sends one request and decodes a success reply.
func (c *client) do(method, path string, body []byte) (reply, time.Time, error) {
	status, b, at, err := c.roundTrip(method, path, body)
	if err != nil {
		return reply{}, at, err
	}
	r := reply{Status: status}
	if status/100 == 2 {
		if err := json.Unmarshal(b, &r); err != nil {
			return reply{}, at, fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return r, at, nil
}

// sessionView is a session's latest revision as GET /v1/session/{id}
// returns it.
type sessionView struct {
	Status   int     `json:"-"`
	RUtility float64 `json:"r_utility"`
	Schedule [][]int `json:"schedule"`
}

func (c *client) session(id string) (sessionView, error) {
	status, b, _, err := c.roundTrip(http.MethodGet, "/v1/session/"+id, nil)
	if err != nil {
		return sessionView{}, err
	}
	v := sessionView{Status: status}
	if status == http.StatusOK {
		if err := json.Unmarshal(b, &v); err != nil {
			return v, fmt.Errorf("GET session: %w", err)
		}
	}
	return v, nil
}

func (c *client) cacheCounts() (hits, misses int64, err error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var m struct {
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return 0, 0, fmt.Errorf("/metrics: %w", err)
	}
	return m.Cache.Hits, m.Cache.Misses, nil
}

// setupServer starts a server and brings it to the measured state: both
// sessions created and every warm instance compiled into the cache.
func setupServer(e *env, in *serveInputs) (*server, *client, [2]string, error) {
	var ids [2]string
	s, err := startServer(e)
	if err != nil {
		return nil, nil, ids, err
	}
	c := newClient(s.base)
	fail := func(err error) (*server, *client, [2]string, error) {
		_, _ = s.stop()
		return nil, nil, ids, err
	}
	for i := range in.sessions {
		inst, err := json.Marshal(in.sessions[i])
		if err != nil {
			return fail(err)
		}
		r, _, err := c.do(http.MethodPost, "/v1/session", fmt.Appendf(nil, `{"colors":1,"instance":%s}`, inst))
		if err != nil {
			return fail(err)
		}
		if r.Status != http.StatusCreated {
			return fail(fmt.Errorf("session create: status %d", r.Status))
		}
		ids[i] = r.SessionID
	}
	for _, w := range in.warm {
		r, _, err := c.do(http.MethodPost, "/v1/schedule", scheduleBody(w, false))
		if err != nil {
			return fail(err)
		}
		if r.Status != http.StatusOK {
			return fail(fmt.Errorf("warm prime: status %d", r.Status))
		}
	}
	return s, c, ids, nil
}

// done is one completed request.
type done struct {
	cls           class
	item          int
	due, sent, at time.Time
	traced        bool
	err           error
	rep           reply
	wantRef       int64
}

// latencyMS is the request's latency from its due time.
func (d done) latencyMS() float64 { return ms(d.at.Sub(d.due)) }

// wallMS is the client-observed request time from send to reply.
func (d done) wallMS() float64 { return ms(d.at.Sub(d.sent)) }

func runServe(e *env, scored class) (*outcome, error) {
	open := time.Duration(float64(e.Budget) * openShare)
	in := makeServeInputs(e.Seed, scored, open, e.Budget-open, e.Trace)
	out := newOutcome()
	out.Info["scored_class"] = classNames[scored]
	out.Info["open_loop_rate_rps"] = openRate()
	out.Info["open_loop_utilisation"] = openUtil
	out.Info["open_loop_seconds"] = open.Seconds()
	out.Info["clients"] = serveClients
	out.Info["open_loop_requests"] = len(in.arrivals)

	// Set-up, setupRepeats times: start, sessions, warm cache.
	var setup []float64
	var srv *server
	var cl *client
	var ids [2]string
	for r := 0; r < setupRepeats; r++ {
		t := time.Now()
		s, c, sid, err := setupServer(e, in)
		if err != nil {
			return nil, err
		}
		setup = append(setup, float64(time.Since(t)))
		if r < setupRepeats-1 {
			if _, err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv, cl, ids = s, c, sid
	}
	stopped := false
	defer func() {
		if !stopped {
			_, _ = srv.stop()
		}
	}()

	h0, m0, err := cl.cacheCounts()
	if err != nil {
		return nil, err
	}
	openDone, lags := openLoop(cl, in, ids)
	h1, m1, err := cl.cacheCounts()
	if err != nil {
		return nil, err
	}
	closedDone, closedStart, closedFor := closedLoop(cl, in, ids, scored, e.Budget-open)
	var finals [2]sessionView
	for i, id := range ids {
		v, err := cl.session(id)
		if err != nil {
			return nil, err
		}
		finals[i] = v
	}
	rss, err := srv.stop()
	stopped = true
	if err != nil {
		return nil, err
	}

	// Correctness: every reply against an in-process solve.
	all := append(append([]done(nil), openDone...), closedDone...)
	chk := newServeChecker(in, e.Trace && scored == classCold)
	chk.check(out, all)
	for i := range ids {
		out.Attempted++
		if err := checkSession(in.gens[i], finals[i]); err != nil {
			out.fail("session %d: %v", i, err)
		}
	}
	lagP90 := quantile(lags, 0.9)
	if lagP90 > lagLimitMS {
		out.fail("generator fell behind: lateness p90 %.2f ms > %.1f ms", lagP90, lagLimitMS)
	}

	everyReply := func(done) bool { return true }
	lat := filterClass(openDone, scored, everyReply, done.latencyMS)
	for c := classCold; c <= classPatch; c++ {
		l := filterClass(openDone, c, everyReply, done.latencyMS)
		out.Info[classNames[c]+"_p50_ms"] = median(l)
		out.Info[classNames[c]+"_p90_ms"] = quantile(l, 0.9)
		out.Info[classNames[c]+"_n"] = len(l)
	}
	out.Info["lag_p90_ms"] = lagP90
	shed := 0
	for _, d := range all {
		if d.rep.Status == http.StatusTooManyRequests {
			shed++
		}
	}

	rates := windowRates(closedStart, closedFor, filter(closedDone, scored, everyReply))
	out.Info["capacity_rps"] = median(rates)
	out.Info["closed_loop_window_rates"] = rates
	out.Info["closed_loop_requests"] = len(closedDone)
	if !e.Trace {
		out.Metrics["setup_s"] = median(setup) / 1e9
		out.Metrics["peak_rss_mb"] = rss
		out.Metrics["ok_frac"] = okFrac(out)
		out.Metrics["op_ms"] = median(lat)
		return out, nil
	}

	m := out.Metrics
	isTraced := func(d done) bool { return d.traced }
	untraced := func(d done) bool { return !d.traced }
	for c := classCold; c <= classPatch; c++ {
		m["serve.server_ms."+classNames[c]] = orZero(median(filterClass(openDone, c, untraced, func(d done) float64 { return d.rep.ElapsedMS })))
	}
	tr := filter(openDone, scored, isTraced)
	var httpMS, residual, wall []float64
	spans := samples{}
	for _, d := range tr {
		httpMS = append(httpMS, d.wallMS()-d.rep.ElapsedMS)
		wall = append(wall, d.wallMS())
		residual = append(residual, d.rep.ElapsedMS-obs.RootDurationMS(d.rep.Trace))
		per := map[string]float64{}
		for _, st := range obs.Aggregate(d.rep.Trace) {
			per[st.Path] += st.TotalMS
		}
		spans.add("serve.decode_ms", per["decode"])
		spans.add("serve.queue_ms", per["acquire_slot"])
		spans.add("serve.resolve_ms", per["resolve_problem"])
		spans.add("serve.patch_apply_ms", per["delta_patch"])
		spans.add("core.solve_c1_ms", per["solve"])
		spans.add("core.decompose_ms", per["solve/decompose"])
		for _, n := range d.rep.Trace {
			if n.Name != "solve" {
				continue
			}
			spans.add("core.shards", float64(n.Attrs["shards"]))
			comps := 0.0
			for _, ch := range n.Children {
				if ch.Name == "decompose" {
					comps = float64(ch.Attrs["components"])
				}
			}
			spans.add("core.components", comps)
		}
	}
	spans.medians(m)
	m["serve.http_ms"] = median(httpMS)
	m["trace.residual_frac"] = sum(residual) / sum(wall)
	tMS := filterClass(openDone, scored, isTraced, func(d done) float64 { return d.rep.ElapsedMS })
	uMS := filterClass(openDone, scored, untraced, func(d done) float64 { return d.rep.ElapsedMS })
	m["trace.overhead_frac"] = (median(tMS) - median(uMS)) / median(uMS)
	warmReused := 0
	for _, d := range openDone {
		if d.cls == classPatch {
			warmReused += d.rep.WarmReused
		}
	}
	m["core.warm_reused"] = float64(warmReused)
	m["serve.cache_hits"] = float64(h1 - h0)
	m["serve.cache_misses"] = float64(m1 - m0)
	m["serve.shed"] = float64(shed)
	m["serve.capacity_rps"] = median(rates)
	patchLat := filterClass(openDone, classPatch, everyReply, done.latencyMS)
	m["loadgen.patch_p50_ms"] = median(patchLat)
	m["loadgen.patch_p90_ms"] = quantile(patchLat, 0.9)
	m["loadgen.p50_ms"] = median(lat)
	m["loadgen.p90_ms"] = quantile(lat, 0.9)
	m["loadgen.lag_p90_ms"] = lagP90
	m["loadgen.sent"] = float64(len(openDone))
	chk.layers.medians(m)
	// Cache traffic is fixed by the schedule: every cold request misses,
	// every warm one hits.
	wantHits, wantMisses := 0, 0
	for _, a := range in.arrivals {
		switch a.cls {
		case classWarm:
			wantHits++
		case classCold:
			wantMisses++
		}
	}
	moved := 0
	if int64(wantHits) != h1-h0 || int64(wantMisses) != m1-m0 {
		out.flag("cache counts moved: %d hits / %d misses, schedule implies %d / %d", h1-h0, m1-m0, wantHits, wantMisses)
		moved++
	}
	m["trace.counts_moved"] = float64(moved)
	fillZeros(m)
	return out, nil
}

func filter(ds []done, c class, keep func(done) bool) []done {
	var r []done
	for _, d := range ds {
		if d.cls == c && keep(d) && d.err == nil && d.rep.Status/100 == 2 {
			r = append(r, d)
		}
	}
	return r
}

func filterClass(ds []done, c class, keep func(done) bool, f func(done) float64) []float64 {
	var xs []float64
	for _, d := range filter(ds, c, keep) {
		xs = append(xs, f(d))
	}
	return xs
}

// send issues one request of an arrival or closed-loop step.
func send(cl *client, in *serveInputs, ids [2]string, a arrival) (reply, time.Time, error) {
	switch a.cls {
	case classCold:
		return cl.do(http.MethodPost, "/v1/schedule", scheduleBody(in.cold[a.item], a.trace))
	case classWarm:
		return cl.do(http.MethodPost, "/v1/schedule", scheduleBody(in.warm[a.item], a.trace))
	default:
		return cl.do(http.MethodPatch, "/v1/session/"+ids[a.sess], a.body)
	}
}

// openLoop releases every arrival at its due time to a FIFO served by
// serveClients workers, and returns the completions and the generator's
// lateness (release time minus due time, ms) per arrival. A session's
// patches are sent in sequence order: a worker holding patch k of a
// session waits until patch k-1 has completed. An arrival still queued
// openOverrun after the last due time fails unsent, so a stalled server
// ends the loop on time.
func openLoop(cl *client, in *serveInputs, ids [2]string) ([]done, []float64) {
	// Sized to every arrival so the generator never blocks on a send.
	queue := make(chan int, len(in.arrivals))
	res := make([]done, len(in.arrivals))
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	turn := [2]int{}
	start := time.Now()
	cutoff := start.Add(openOverrun)
	if n := len(in.arrivals); n > 0 {
		cutoff = cutoff.Add(in.arrivals[n-1].due)
	}
	var wg sync.WaitGroup
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				a := in.arrivals[i]
				if a.cls == classPatch {
					mu.Lock()
					for turn[a.sess] != a.seq {
						cond.Wait()
					}
					mu.Unlock()
				}
				d := &res[i]
				d.sent = time.Now()
				if d.sent.After(cutoff) {
					d.err = fmt.Errorf("not sent: the open loop overran its schedule by %v", openOverrun)
				} else {
					d.rep, d.at, d.err = send(cl, in, ids, a)
				}
				if a.cls == classPatch {
					mu.Lock()
					turn[a.sess]++
					cond.Broadcast()
					mu.Unlock()
				}
			}
		}()
	}
	lags := make([]float64, len(in.arrivals))
	for i, a := range in.arrivals {
		due := start.Add(a.due)
		time.Sleep(time.Until(due))
		now := time.Now()
		res[i] = done{cls: a.cls, item: a.item, due: due, traced: a.trace, wantRef: a.ref}
		lags[i] = ms(now.Sub(due))
		queue <- i
	}
	close(queue)
	wg.Wait()
	return res, lags
}

// closedLoop runs serveClients workers sending cold or warm requests back
// to back for d, and returns the completions, the start time and how long
// the loop ran at full load: d, or less if the cold loop ran out of fresh
// instances.
func closedLoop(cl *client, in *serveInputs, ids [2]string, c class, d time.Duration) ([]done, time.Time, time.Duration) {
	var next atomic.Int64
	next.Store(int64(countClass(in.arrivals, classCold)))
	results := make([][]done, serveClients)
	start := time.Now()
	deadline := start.Add(d)
	var ranOut sync.Once
	ran := d
	var wg sync.WaitGroup
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			warmNext := w * warmPool / serveClients
			for time.Now().Before(deadline) {
				a := arrival{cls: c}
				switch c {
				case classCold:
					a.item = int(next.Add(1) - 1)
					if a.item >= len(in.cold) {
						ranOut.Do(func() { ran = time.Since(start) })
						return
					}
				case classWarm:
					a.item = warmNext % warmPool
					warmNext++
				}
				r := done{cls: c, item: a.item, sent: time.Now()}
				r.due = r.sent
				r.rep, r.at, r.err = send(cl, in, ids, a)
				results[w] = append(results[w], r)
			}
		}(w)
	}
	wg.Wait()
	var all []done
	for _, r := range results {
		all = append(all, r...)
	}
	return all, start, ran
}

// capacityWindow is the window over which closed-loop completions are
// counted; the capacity is the median window's rate, so a stall of the
// shared host in one window does not move it.
const capacityWindow = 500 * time.Millisecond

// windowRates counts the completions in each whole capacityWindow of a
// closed loop that ran at full load for d from start, as rates.
func windowRates(start time.Time, d time.Duration, ds []done) []float64 {
	n := int(d / capacityWindow)
	if n < 1 {
		n = 1
	}
	counts := make([]float64, n)
	for _, x := range ds {
		if w := int(x.at.Sub(start) / capacityWindow); w >= 0 && w < n {
			counts[w]++
		}
	}
	return scaled(counts, float64(time.Second)/float64(capacityWindow))
}

func countClass(as []arrival, c class) int {
	n := 0
	for _, a := range as {
		if a.cls == c {
			n++
		}
	}
	return n
}

// serveChecker holds the in-process expectations: the r_utility of a
// direct core.TabularGreedy on every cold and warm instance, solved the
// way the service solves a C=1 request. When timing is set it also
// records the instio and compile layer times of the cold instances. Only
// cold requests pay decode, hash and compile on the server; warm ones are
// served from its byte memo and problem cache, so warm instances are
// never timed and serve-warm reports those layers as 0.
type serveChecker struct {
	in     *serveInputs
	timing bool
	mu     sync.Mutex // guards layers
	layers samples
}

func newServeChecker(in *serveInputs, timing bool) *serveChecker {
	return &serveChecker{in: in, timing: timing, layers: samples{}}
}

// solve decodes, hashes, compiles and schedules one instance in-process
// and returns its relaxed utility, timing each call into a layer when
// timed is set.
func (c *serveChecker) solve(raw []byte, timed bool) (float64, error) {
	t := time.Now()
	var f instio.File
	if err := json.Unmarshal(raw, &f); err != nil {
		return 0, err
	}
	inst, err := f.ToInstance()
	if err != nil {
		return 0, err
	}
	decode := time.Since(t)
	t = time.Now()
	if _, err := f.Hash(); err != nil {
		return 0, err
	}
	hash := time.Since(t)
	var tr *obs.Trace
	if timed {
		tr = obs.New()
	}
	t = time.Now()
	p, err := core.NewProblemTraced(inst, tr)
	if err != nil {
		return 0, err
	}
	compile := time.Since(t)
	res := core.TabularGreedy(p, core.Options{
		Colors: 1, PreferStay: true, Workers: 1, Rng: rand.New(rand.NewSource(1)),
	})
	if timed {
		lay := map[string]float64{
			"instio.decode_ms": ms(decode),
			"instio.hash_ms":   ms(hash),
			"core.compile_ms":  ms(compile),
		}
		addSpanLayers(lay, tr.Tree())
		c.mu.Lock()
		for k, v := range lay {
			c.layers.add(k, v)
		}
		c.mu.Unlock()
	}
	return res.RUtility, nil
}

// check solves every instance the run sent and compares each reply.
func (c *serveChecker) check(out *outcome, ds []done) {
	cold := make([]float64, len(c.in.cold))
	warm := make([]float64, len(c.in.warm))
	type job struct {
		raw   []byte
		timed bool
		dst   *float64
	}
	var jobs []job
	seen := map[int]bool{}
	for _, d := range ds {
		if d.cls == classCold && !seen[d.item] {
			seen[d.item] = true
			jobs = append(jobs, job{c.in.cold[d.item], c.timing, &cold[d.item]})
		}
	}
	for i := range c.in.warm {
		jobs = append(jobs, job{c.in.warm[i], false, &warm[i]})
	}
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(jobs); k = int(next.Add(1) - 1) {
				*jobs[k].dst, errs[k] = c.solve(jobs[k].raw, jobs[k].timed)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			out.fail("in-process solve: %v", err)
		}
	}

	for _, d := range ds {
		out.Attempted++
		if d.err != nil {
			out.fail("%s request: %v", classNames[d.cls], d.err)
			continue
		}
		if d.rep.Status/100 != 2 {
			out.fail("%s request: status %d", classNames[d.cls], d.rep.Status)
			continue
		}
		switch d.cls {
		case classCold:
			if d.rep.RUtility != cold[d.item] {
				out.fail("cold instance %d: r_utility %v, in-process TabularGreedy %v", d.item, d.rep.RUtility, cold[d.item])
			}
			if d.rep.Cache != "miss" {
				out.fail("cold instance %d: cache %q, want miss", d.item, d.rep.Cache)
			}
		case classWarm:
			if d.rep.RUtility != warm[d.item] {
				out.fail("warm instance %d: r_utility %v, in-process TabularGreedy %v", d.item, d.rep.RUtility, warm[d.item])
			}
			if d.rep.Cache != "hit" {
				out.flag("warm instance %d: cache %q (evicted?)", d.item, d.rep.Cache)
			}
		case classPatch:
			if len(d.rep.Refs) != 1 || d.rep.Refs[0] != d.wantRef {
				out.fail("patch: refs %v, want [%d]", d.rep.Refs, d.wantRef)
			}
			if d.rep.Tasks != sessionTasks {
				out.fail("patch: %d tasks, want %d", d.rep.Tasks, sessionTasks)
			}
		}
	}
}

// checkSession compares a session's final revision with a from-scratch
// solve of the mirrored, mutated instance (the session solves C=1 with
// seed 1 on the shard-and-stitch path).
func checkSession(g *sessionGen, got sessionView) error {
	if got.Status != http.StatusOK {
		return fmt.Errorf("GET status %d", got.Status)
	}
	inst, err := g.instance().ToInstance()
	if err != nil {
		return err
	}
	p, err := core.NewProblem(inst)
	if err != nil {
		return err
	}
	res := core.TabularGreedy(p, core.Options{
		Colors: 1, PreferStay: true, Workers: 1, Shard: core.ShardOn, Rng: rand.New(rand.NewSource(1)),
	})
	if got.RUtility != res.RUtility {
		return fmt.Errorf("final r_utility %v, from-scratch solve %v", got.RUtility, res.RUtility)
	}
	if len(got.Schedule) != len(res.Schedule.Policy) {
		return fmt.Errorf("final schedule has %d chargers, from-scratch %d", len(got.Schedule), len(res.Schedule.Policy))
	}
	for i := range got.Schedule {
		if fmt.Sprint(got.Schedule[i]) != fmt.Sprint(res.Schedule.Policy[i]) {
			return fmt.Errorf("final schedule of charger %d differs from the from-scratch solve", i)
		}
	}
	return nil
}

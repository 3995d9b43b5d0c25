package online

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"haste/internal/core"
	"haste/internal/dominant"
	"haste/internal/model"
	"haste/internal/netsim"
	"haste/internal/sim"
)

// Options configures a distributed online run.
type Options struct {
	// Colors is the TabularGreedy control parameter C (default 1).
	Colors int
	// Samples is the number of Monte-Carlo color vectors when Colors > 1
	// (default 8·Colors, forced to 1 when Colors == 1).
	Samples int
	// Seed drives the shared color hash and the final per-agent color
	// sampling; runs with equal seeds are identical.
	Seed int64
	// DropRate / DupRate inject message loss and duplication into the
	// negotiation (see package netsim). The protocol degrades gracefully:
	// sessions still terminate, utility may drop. Every rate must be a
	// probability in [0, 1]; Run fails with netsim.ErrBadRate otherwise,
	// whether or not any negotiation would start.
	DropRate, DupRate float64
	// DelayRate / CrashRate inject bounded message delay (with reordering)
	// and node crash/restart outages (see package netsim).
	DelayRate, CrashRate float64
	// Driver, when non-nil, builds the execution substrate carrying each
	// negotiation's control messages — e.g. transport.Factory for
	// loopback-TCP sockets. Nil selects the in-memory netsim engine. The
	// protocol's behaviour is substrate-invariant: every driver must
	// commit bit-identical schedules with exactly reconciled Stats
	// (difftest.DriverSweep is the enforcement).
	Driver netsim.Factory
	// Reliable turns on the commit-reliability layer: sequence-numbered
	// UPDs, per-neighbor acks, and a bounded-retransmit session epilogue,
	// so a lost commit is re-announced instead of silently diverging the
	// neighbors' energy views. Failure-free runs commit the same tuples
	// with or without it; the acks and retransmissions cost messages.
	Reliable bool
	// RetryBudget caps per-commit retransmissions (default 6 when
	// Reliable).
	RetryBudget int
	// MaxRounds caps each negotiation session's rounds (default: the
	// netsim default). A session that hits the cap is recorded in
	// Stats.NonQuiescentSessions; mainly a chaos-testing knob.
	MaxRounds int
}

func (o Options) normalize() Options {
	if o.Colors < 1 {
		o.Colors = 1
	}
	if o.Colors == 1 {
		o.Samples = 1
	} else if o.Samples <= 0 {
		o.Samples = 8 * o.Colors
	}
	if o.Reliable && o.RetryBudget <= 0 {
		o.RetryBudget = 6
	}
	return o
}

// failureInjection reports whether any netsim failure mode is requested.
func (o Options) failureInjection() bool {
	return o.DropRate > 0 || o.DupRate > 0 || o.DelayRate > 0 || o.CrashRate > 0
}

// netOptions carries the failure-injection knobs into the substrate's
// options (without the per-negotiation Rng).
func (o Options) netOptions() netsim.Options {
	return netsim.Options{
		DropRate:  o.DropRate,
		DupRate:   o.DupRate,
		DelayRate: o.DelayRate,
		CrashRate: o.CrashRate,
		MaxRounds: o.MaxRounds,
	}
}

// NegotiationStats describes one arrival-triggered renegotiation.
type NegotiationStats struct {
	Slot     int   // arrival slot that triggered it
	NewTasks int   // tasks that arrived
	Sessions int   // (slot, color) sessions that went past the quiescent round
	Messages int64 // control messages delivered
	Rounds   int   // negotiation rounds across executed sessions
}

// Stats aggregates a full run (the Fig. 16 quantities). The per-session
// totals reconcile exactly with the network-level ones: TotalMessages()
// == Net.Messages and TotalRounds() == Net.Rounds.
type Stats struct {
	Negotiations []NegotiationStats
	Net          netsim.Stats // network-level totals including failure injection

	// Degradation accounting under failure injection.
	NonQuiescentSessions int   // sessions that hit MaxRounds without quiescing
	UnackedCommits       int   // committed tuples some neighbor never acked (Reliable only)
	Retransmits          int64 // UPD re-broadcasts by the reliability layer
}

// TotalMessages sums control messages over all negotiations.
func (s Stats) TotalMessages() int64 {
	var t int64
	for _, n := range s.Negotiations {
		t += n.Messages
	}
	return t
}

// TotalRounds sums negotiation rounds over all negotiations.
func (s Stats) TotalRounds() int {
	t := 0
	for _, n := range s.Negotiations {
		t += n.Rounds
	}
	return t
}

// Result of a distributed online run.
type Result struct {
	// Orientations is the stitched orientation timeline the chargers
	// actually executed (NaN = no command, keep previous orientation).
	Orientations [][]float64
	// Outcome is the physical, switching-delay-aware result.
	Outcome sim.Outcome
	// Stats reports the communication cost.
	Stats Stats
}

// Run simulates the whole online scenario on problem p: tasks become
// known at their release slots; each arrival batch triggers a distributed
// renegotiation of all orientations from τ slots in the future; the
// resulting plan is executed physically with switching delays. See the
// package comment for the protocol.
//
// A failure rate that is not a probability fails Run up front with
// netsim.ErrBadRate. Otherwise, with the default in-memory substrate Run
// cannot fail; a non-nil error reports a broken Options.Driver substrate
// (listen/dial failure, a link dying mid-session, coordinator
// cancellation) — injected message loss is never an error, it is
// degradation accounted in Stats.
func Run(p *core.Problem, opt Options) (Result, error) {
	return run(p, opt, nil)
}

// run is Run with an optional observer, called after every negotiation
// with its outcome, the known-task mask and the orientation timeline it
// was negotiated against (before its plan is installed). The white-box
// tests use it to check the carried run state against from-scratch
// derivations at every arrival.
func run(p *core.Problem, opt Options, observe func(neg negotiation, isKnown []bool, orient [][]float64)) (Result, error) {
	opt = opt.normalize()
	if err := opt.netOptions().CheckRates(); err != nil {
		return Result{}, fmt.Errorf("online: %w", err)
	}
	in := p.In
	n := len(in.Chargers)
	tau := in.Params.Tau
	K := p.K

	orient := make([][]float64, n)
	for i := range orient {
		orient[i] = make([]float64, K)
		for k := range orient[i] {
			orient[i][k] = math.NaN()
		}
	}

	// Group arrivals by release slot.
	arrivals := map[int][]int{}
	for _, t := range in.Tasks {
		arrivals[t.Release] = append(arrivals[t.Release], t.ID)
	}
	slots := make([]int, 0, len(arrivals))
	for s := range arrivals {
		slots = append(slots, s)
	}
	sort.Ints(slots)

	rs := newRunState(p)
	var stats Stats
	isKnown := make([]bool, len(in.Tasks))
	maxEnd := 0
	for _, t := range slots {
		for _, j := range arrivals[t] {
			isKnown[j] = true
			maxEnd = max(maxEnd, in.Tasks[j].End)
		}

		lockUntil := min(t+tau, K)
		if maxEnd <= lockUntil {
			stats.Negotiations = append(stats.Negotiations, NegotiationStats{
				Slot: t, NewTasks: len(arrivals[t]),
			})
			continue
		}

		neg, err := negotiate(rs, opt, isKnown, orient, t, lockUntil, maxEnd)
		if err != nil {
			return Result{}, fmt.Errorf("online: negotiation at slot %d: %w", t, err)
		}
		neg.Slot = t
		neg.NewTasks = len(arrivals[t])
		if observe != nil {
			observe(neg, isKnown, orient)
		}
		stats.Negotiations = append(stats.Negotiations, neg.NegotiationStats)
		stats.Net.Add(neg.net)
		stats.NonQuiescentSessions += neg.nonQuiescent
		stats.UnackedCommits += neg.unackedCommits
		stats.Retransmits += neg.retransmits

		// Install the new plan over the renegotiated horizon.
		for i := 0; i < n; i++ {
			copy(orient[i][lockUntil:maxEnd], neg.plans[i])
		}
	}

	return Result{
		Orientations: orient,
		Outcome:      sim.ExecuteOrientations(p, orient),
		Stats:        stats,
	}, nil
}

// negotiation is the outcome of one arrival-triggered renegotiation.
type negotiation struct {
	NegotiationStats
	net            netsim.Stats
	nonQuiescent   int         // sessions that hit MaxRounds
	unackedCommits int         // commits whose ack ledger was non-empty at session end
	retransmits    int64       // reliability-layer UPD re-broadcasts
	plans          [][]float64 // per charger, orientation commands for [lockUntil, maxEnd)
	// baseline and agents are retained for the white-box tests.
	baseline []float64
	agents   []*agent
}

// negotiate runs the full Algorithm 3 loop (slots outer, colors inner)
// over the network of agents and returns their sampled plans. isKnown
// marks the tasks that have arrived. rs is the run's carried state:
// within one run, isKnown only grows and lockUntil never decreases. The
// substrate (in-memory engine or a real-socket driver from opt.Driver) is
// built once per negotiation and torn down before returning; only
// substrate failures are errors — non-quiescence is degradation.
func negotiate(rs *runState, opt Options, isKnown []bool, orient [][]float64, now, lockUntil, maxEnd int) (negotiation, error) {
	p := rs.p
	n := len(p.In.Chargers)

	baseline := rs.perceivedEnergies(orient, isKnown, lockUntil)
	neighbors := rs.neighbors(isKnown)
	agents := make([]*agent, n)
	nodes := make([]netsim.Node, n)
	for i := 0; i < n; i++ {
		agents[i] = newAgent(i, p, opt, rs.gamma(i, isKnown), baseline, neighbors[i])
		nodes[i] = agents[i]
	}

	nopt := opt.netOptions()
	if opt.failureInjection() {
		nopt.Rng = rand.New(rand.NewSource(opt.Seed ^ int64(now)<<20))
	}
	factory := opt.Driver
	if factory == nil {
		factory = netsim.MemFactory
	}
	driver, err := factory(neighbors, nopt)
	if err != nil {
		return negotiation{}, fmt.Errorf("building driver: %w", err)
	}
	defer driver.Close()

	var out negotiation
	for k := lockUntil; k < maxEnd; k++ {
		for c := 0; c < opt.Colors; c++ {
			anyBid := false
			for _, a := range agents {
				a.startSession(k, c)
				if a.myBid > 1e-15 {
					anyBid = true
				}
			}
			if !anyBid {
				// Nobody has anything to gain at this (slot, color):
				// the session would be a single silent round.
				continue
			}
			st, err := driver.Run(nodes)
			out.net.Add(st)
			if err != nil {
				if !errors.Is(err, netsim.ErrNoQuiescence) {
					// The substrate itself failed (a link died, the
					// coordinator was cancelled): the session outcome is
					// undefined, abort the negotiation.
					return out, fmt.Errorf("session (slot %d, color %d): %w", k, c, err)
				}
				// MaxRounds tripped (only possible under extreme failure
				// injection); keep whatever was committed so far, but
				// account for the degradation instead of hiding it.
				out.nonQuiescent++
			}
			// Account every session the engine actually ran, so the
			// per-negotiation totals reconcile exactly with Stats.Net.
			// Sessions counts those that went past the single quiescent
			// round: a lone bidder with no neighbors still bids, commits
			// and burns rounds, so gating on delivered messages would
			// undercount (only a fully crash-silenced session stays at
			// one round).
			out.Messages += st.Messages
			out.Rounds += st.Rounds
			if st.Rounds > 1 {
				out.Sessions++
			}
			for _, a := range agents {
				if a.unackedCount() > 0 {
					out.unackedCommits++
				}
			}
		}
	}

	for _, a := range agents {
		out.retransmits += a.retransmits
	}
	out.baseline, out.agents = baseline, agents
	out.plans = make([][]float64, n)
	for i, a := range agents {
		// Each agent owns its color-sampling source, so seeding only the
		// ones that draw (C > 1 and at least one committed slot) leaves
		// every other agent's draws unchanged.
		var rng *rand.Rand
		if opt.Colors > 1 && len(a.q) > 0 {
			rng = rand.New(rand.NewSource(opt.Seed ^ int64(now)<<24 ^ int64(i)<<8))
		}
		out.plans[i] = a.finalPlan(lockUntil, maxEnd, rng)
	}
	return out, nil
}

// runState is the per-charger state one Run carries across its
// arrival-triggered negotiations, instead of re-deriving it at each one.
// It relies on two monotonicities of a run: the known task set only
// grows, and lockUntil never decreases — so the orientations of the
// slots before a negotiation's lockUntil are final (every later
// negotiation writes only from its own lockUntil on). Everything it holds
// is O(row entries).
type runState struct {
	p *core.Problem
	// coversByTask[j] lists the chargers that can deliver energy to task
	// j (De > 0), ascending; the sparse rows inverted once per run.
	coversByTask [][]int
	// gammas[i] is charger i's cached Γ over its known row tasks.
	gammas []chargerGamma
	// cnt[i][l] counts the slots in [0, done) in which charger i's
	// committed orientation covered task row[l].Task while it was active
	// (entries with De > 0 only); cur[i] is the orientation in force at
	// slot done (NaN until the charger's first command).
	cnt  [][]int32
	cur  []float64
	done int
}

// chargerGamma is one charger's Γ over the known tasks of its row,
// extracted when nKnown of them were known.
type chargerGamma struct {
	nKnown   int // -1 until the first extraction
	policies []dominant.Policy
	// covers[pol] is policy pol's cover list restricted to De > 0 and
	// resolved to row positions; nil for the Idle policy.
	covers [][]windowedCover
}

func newRunState(p *core.Problem) *runState {
	n := len(p.In.Chargers)
	rs := &runState{
		p:            p,
		coversByTask: make([][]int, len(p.In.Tasks)),
		gammas:       make([]chargerGamma, n),
		cnt:          make([][]int32, n),
		cur:          make([]float64, n),
	}
	entries := 0
	for i := 0; i < n; i++ {
		entries += len(p.ChargerRow(i))
	}
	arena := make([]int32, entries)
	for i := 0; i < n; i++ {
		row := p.ChargerRow(i)
		rs.cnt[i], arena = arena[:len(row):len(row)], arena[len(row):]
		for _, ent := range row {
			if ent.De > 0 {
				rs.coversByTask[ent.Task] = append(rs.coversByTask[ent.Task], i)
			}
		}
		rs.gammas[i].nKnown = -1
		rs.cur[i] = math.NaN()
	}
	return rs
}

// gamma returns charger i's Γ over its known row tasks. The known set
// only grows within a run, so an unchanged count of known row tasks is an
// unchanged subset and the cached policies stand; a fully known row is
// exactly the compiled p.Gamma[i] (extracted from the same row candidate
// list). Only a changed, partial row is re-extracted.
func (rs *runState) gamma(i int, isKnown []bool) *chargerGamma {
	p := rs.p
	row := p.ChargerRow(i)
	nKnown := 0
	for _, ent := range row {
		if isKnown[ent.Task] {
			nKnown++
		}
	}
	g := &rs.gammas[i]
	if g.nKnown == nKnown {
		return g
	}
	g.nKnown = nKnown
	if nKnown == len(row) {
		g.policies = p.Gamma[i]
	} else {
		g.policies = dominant.ExtractSubset(p.In, i, knownRowTasks(row, isKnown))
	}
	g.covers = resolveCovers(p.In.Tasks, row, g.policies)
	return g
}

// knownRowTasks returns the IDs of the known tasks in a charger's row,
// ascending. The row holds exactly the chargeable tasks, so this is the
// candidate list a Chargeable scan of every known task would filter down
// to, in the same order — and dominant extraction over it yields the
// same policies.
func knownRowTasks(row []core.CoverEntry, isKnown []bool) []int {
	var ids []int
	for _, ent := range row {
		if isKnown[ent.Task] {
			ids = append(ids, int(ent.Task))
		}
	}
	return ids
}

// resolveCovers maps every policy's covers with positive slot energy to
// their row positions and task windows. Every cover is chargeable and
// therefore in the row; both lists are ascending, so a two-pointer merge
// finds them.
func resolveCovers(tasks []model.Task, row []core.CoverEntry, policies []dominant.Policy) [][]windowedCover {
	// One arena sized to every cover: the lists are cached for the run.
	total := 0
	for _, g := range policies {
		total += len(g.Covers)
	}
	arena := make([]windowedCover, 0, total)
	out := make([][]windowedCover, len(policies))
	for pol := range policies {
		start, r := len(arena), 0
		for _, j := range policies[pol].Covers {
			for r < len(row) && int(row[r].Task) < j {
				r++
			}
			if r == len(row) {
				break
			}
			if int(row[r].Task) == j && row[r].De > 0 {
				t := &tasks[j]
				arena = append(arena, windowedCover{
					taskEnergy{int32(j), int32(r), row[r].De}, int32(t.Release), int32(t.End),
				})
			}
		}
		if len(arena) > start {
			out[pol] = arena[start:len(arena):len(arena)]
		}
	}
	return out
}

// perceivedEnergies returns, with relaxed (full-slot) accounting, the
// energy each known task has harvested from the committed orientation
// timeline during slots [0, upTo) — the baseline every agent starts its
// local view from. Unknown tasks stay at zero: no agent can plan around
// energy it does not know was delivered.
//
// The cover counts are extended over [done, upTo) only. The energies are
// then replayed from them: charger by charger, cnt additions of the
// entry's per-slot energy — for each task the same sequence of float
// additions a slot-by-slot walk of the whole prefix performs, so the
// baseline is bit-identical to it without re-testing coverage.
func (rs *runState) perceivedEnergies(orient [][]float64, isKnown []bool, upTo int) []float64 {
	p := rs.p
	in := p.In
	upTo = min(upTo, p.K)
	if upTo > rs.done {
		for i := range in.Chargers {
			row, cnt, cur := p.ChargerRow(i), rs.cnt[i], rs.cur[i]
			for k := rs.done; k < upTo; k++ {
				if k < len(orient[i]) && !math.IsNaN(orient[i][k]) {
					cur = orient[i][k]
				}
				if math.IsNaN(cur) {
					continue
				}
				for l, ent := range row {
					t := &in.Tasks[ent.Task]
					if ent.De > 0 && t.ActiveAt(k) && in.Params.Covers(in.Chargers[i], cur, *t) {
						cnt[l]++
					}
				}
			}
			rs.cur[i] = cur
		}
		rs.done = upTo
	}
	e := make([]float64, len(in.Tasks))
	for i := range in.Chargers {
		for l, ent := range p.ChargerRow(i) {
			if !isKnown[ent.Task] {
				continue
			}
			for c := rs.cnt[i][l]; c > 0; c-- {
				e[ent.Task] += ent.De
			}
		}
	}
	return e
}

// neighbors builds the neighbor relation over known tasks only: two
// chargers are neighbors iff they share a known task both can deliver
// energy to. Each row is ascending and duplicate-free.
func (rs *runState) neighbors(isKnown []bool) [][]int {
	p := rs.p
	n := len(p.In.Chargers)
	out := make([][]int, n)
	seen := make([]int, n) // seen[b] == a+1: b already listed for a
	for a := 0; a < n; a++ {
		for _, ent := range p.ChargerRow(a) {
			if ent.De <= 0 || !isKnown[ent.Task] {
				continue
			}
			for _, b := range rs.coversByTask[ent.Task] {
				if b != a && seen[b] != a+1 {
					seen[b] = a + 1
					out[a] = append(out[a], b)
				}
			}
		}
		sort.Ints(out[a])
	}
	return out
}

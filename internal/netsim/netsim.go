// Package netsim is the distributed-execution substrate for the online
// algorithm: an in-memory broadcast network that drives a set of nodes
// (one per wireless charger) through synchronized communication rounds and
// accounts for every message delivered — the quantities Fig. 16 of the
// paper reports.
//
// The paper's Algorithm 3 runs asynchronously; its proof of Theorem 6.1
// shows the asynchronous executions can be reordered into a global
// sequence (the DAG/topological-sort argument), so a round-synchronized
// engine reproduces the algorithm's behaviour exactly while keeping runs
// reproducible. The in-memory Engine steps the nodes sequentially; the
// loopback TCP engine (package transport) shares its round loop
// (RunRounds), and the cross-driver differential suite requires both to
// produce identical outcomes. Optional failure injection exercises the
// negotiation protocol's tolerance.
//
// # Failure model
//
// Four failure modes can be injected, all seeded and deterministic:
//
//   - message drop (DropRate, or per directed link via LinkDropRate),
//   - message duplication (DupRate),
//   - bounded message delay (DelayRate/MaxDelay) — a delayed message is
//     delivered 1..MaxDelay rounds late, which also reorders it relative
//     to later traffic on the same link,
//   - node crash/restart (CrashRate/CrashDownRounds) — a crashed node is
//     not stepped for CrashDownRounds rounds and every message addressed
//     to it while it is down is lost; it restarts with its state intact
//     (the fault is the outage and the lost traffic, not amnesia).
//
// All random draws happen in the single-threaded delivery/bookkeeping
// sections of the round loop, so every driver consumes the RNG
// identically and produces bit-identical outcomes. Every rate must be a
// probability in [0, 1]; RunRounds rejects anything else with ErrBadRate.
package netsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Payload is an opaque protocol message body.
type Payload interface{}

// Message is a delivered message with its sender.
type Message struct {
	From    int
	Payload Payload
}

// Node is a participant. Each round the engine hands it the messages
// delivered this round; the node returns a payload to broadcast to all its
// neighbors (nil for silence) and whether it considers its work done.
// Done nodes keep being stepped (they may still need to answer) until the
// whole network quiesces.
type Node interface {
	Step(inbox []Message) (out Payload, done bool)
}

// Driver is the execution-substrate contract of the negotiation protocol:
// Run drives a set of nodes through synchronized rounds to quiescence and
// accounts for every message. Both the in-memory Engine and the loopback
// TCP engine (package transport) implement it; the algorithm's behaviour
// must be invariant to which one carries the messages — the cross-driver
// differential suite (difftest.DriverSweep) enforces bit-identical
// outcomes and exactly reconciled Stats.
//
// Run may be called repeatedly (once per negotiation session); Close
// releases any substrate resources (sockets, listeners, goroutines) and
// must be called exactly once when the negotiation is over. Closing the
// in-memory engine is a no-op.
type Driver interface {
	Run(nodes []Node) (Stats, error)
	Close() error
}

// Factory builds a Driver over a topology for one negotiation. The online
// layer calls it once per arrival-triggered renegotiation with the session
// topology and the fully populated Options (failure injection Rng
// included), so every driver consumes the same RNG draws in the same
// order.
type Factory func(neighbors [][]int, opt Options) (Driver, error)

// Options configures an engine run.
type Options struct {
	// DropRate is the probability each individual delivery is lost.
	DropRate float64
	// LinkDropRate, when non-nil, overrides DropRate per directed link
	// (from, to) — asymmetric loss: A→B may be lossy while B→A is clean.
	// It must be a pure function for runs to stay deterministic.
	LinkDropRate func(from, to int) float64
	// DupRate is the probability each delivery is duplicated.
	DupRate float64
	// DelayRate is the probability each delivery is postponed by a delay
	// drawn uniformly from 1..MaxDelay rounds (delivered late, and hence
	// possibly reordered relative to later traffic).
	DelayRate float64
	// MaxDelay bounds the injected delay in rounds (default 3).
	MaxDelay int
	// CrashRate is the per-node per-round probability that an up node
	// crashes. A crashed node is down for CrashDownRounds rounds: it is
	// not stepped and all messages addressed to it are lost.
	CrashRate float64
	// CrashDownRounds is the outage length of one crash (default 2).
	CrashDownRounds int
	// Rng drives failure injection; required if any failure mode above is
	// enabled (Run returns ErrRngRequired otherwise).
	Rng *rand.Rand
	// MaxRounds caps a session (default 10000).
	MaxRounds int
}

// CheckRates returns ErrBadRate, naming the field, for the first failure
// rate that is not a probability (non-finite or outside [0, 1]).
func (o Options) CheckRates() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"DropRate", o.DropRate}, {"DupRate", o.DupRate}, {"DelayRate", o.DelayRate}, {"CrashRate", o.CrashRate}} {
		if math.IsNaN(r.v) || r.v < 0 || r.v > 1 {
			return fmt.Errorf("%w: %s = %v", ErrBadRate, r.name, r.v)
		}
	}
	return nil
}

// failureInjection reports whether any failure mode is enabled.
func (o Options) failureInjection() bool {
	return o.DropRate > 0 || o.DupRate > 0 || o.DelayRate > 0 ||
		o.CrashRate > 0 || o.LinkDropRate != nil
}

// Stats accounts for one engine session. The counters reconcile exactly:
//
//	Messages == Attempted - Dropped - CrashLost - Expired + Duplicated
//
// (Delayed deliveries are still delivered — late — so delay moves rounds,
// not the message balance; a delivery can be both duplicated and delayed.)
type Stats struct {
	Rounds     int   // rounds executed (the final quiescent round included)
	Attempted  int64 // per-link send attempts before any failure injection
	Messages   int64 // deliveries that reached a node
	Dropped    int64 // deliveries lost to drop injection
	Duplicated int64 // extra deliveries from duplication
	Delayed    int64 // deliveries postponed by delay injection
	Crashes    int64 // node crash events
	CrashLost  int64 // deliveries lost because the destination was down
	Expired    int64 // in-flight delayed deliveries discarded at MaxRounds
}

// Add accumulates another session's stats.
func (s *Stats) Add(o Stats) {
	s.Rounds += o.Rounds
	s.Attempted += o.Attempted
	s.Messages += o.Messages
	s.Dropped += o.Dropped
	s.Duplicated += o.Duplicated
	s.Delayed += o.Delayed
	s.Crashes += o.Crashes
	s.CrashLost += o.CrashLost
	s.Expired += o.Expired
}

// ErrNoQuiescence is returned when MaxRounds elapses with traffic still
// flowing.
var ErrNoQuiescence = errors.New("netsim: session did not quiesce within MaxRounds")

// ErrBadRate is returned by RunRounds when a failure rate is not a
// probability: NaN, ±Inf, negative or above 1. Such a rate would silently
// disable the failure mode (negative, NaN) or make every draw fire (above
// 1), so the session refuses to start instead.
var ErrBadRate = errors.New("netsim: failure rate must be a probability in [0, 1]")

// ErrRngRequired is returned by Run when a failure mode is enabled but
// Options.Rng is nil — failure injection silently disabled would make
// every chaos experiment a no-op.
var ErrRngRequired = errors.New("netsim: Options.Rng is required when failure injection is enabled")

// Engine drives sessions over a fixed topology. Neighbors[i] lists the
// node indices adjacent to node i; the relation must be symmetric.
type Engine struct {
	Neighbors [][]int
	Opt       Options
}

// delayedMsg is an in-flight delivery postponed by delay injection.
type delayedMsg struct {
	due int // round whose Step consumes it
	to  int
	msg Message
}

// Run drives the nodes until a round passes with no broadcasts and no
// in-flight delayed messages (global quiescence) or MaxRounds is hit.
// len(nodes) must equal len(Neighbors).
func (e *Engine) Run(nodes []Node) (Stats, error) {
	return RunRounds(e.Neighbors, e.Opt, sequentialStep(nodes))
}

// Close implements Driver. The in-memory engine holds no resources.
func (e *Engine) Close() error { return nil }

// MemFactory is the Factory of the in-memory engine — the default
// substrate when no driver is selected.
func MemFactory(neighbors [][]int, opt Options) (Driver, error) {
	return &Engine{Neighbors: neighbors, Opt: opt}, nil
}

// sequentialStep steps the nodes one by one on the calling goroutine.
func sequentialStep(nodes []Node) StepFunc {
	return func(round int, down []bool, inboxes [][]Message, outs []Payload) error {
		for i, nd := range nodes {
			if down != nil && down[i] {
				continue
			}
			outs[i], _ = nd.Step(inboxes[i])
		}
		return nil
	}
}

// StepFunc executes one round's stepping fan for RunRounds: for every up
// node i (down == nil, or down[i] == false) it must run Step on node i's
// inbox and store the broadcast payload in outs[i]. outs is pre-cleared to
// nil, so down nodes need no action. A non-nil error aborts the session —
// substrates use it for link failures the round loop itself cannot see.
type StepFunc func(round int, down []bool, inboxes [][]Message, outs []Payload) error

// RunRounds is the substrate-independent session loop every Driver shares:
// crash draws, delivery bookkeeping and all failure-injection RNG draws
// happen here, single-threaded, in a fixed order — before (crash) and
// after (drop/dup/delay) the stepping fan. A driver only supplies the fan,
// so the in-memory and socket drivers consume the RNG identically and
// produce bit-identical Stats and inbox orderings by construction. It
// runs until a round passes with no broadcasts and no in-flight delayed
// messages (global quiescence), MaxRounds is hit (ErrNoQuiescence), or
// the step fan fails. A failure rate outside [0, 1] fails the session
// before its first round (ErrBadRate).
func RunRounds(neighbors [][]int, opt Options, step StepFunc) (Stats, error) {
	n := len(neighbors)
	maxRounds := opt.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 10000
	}
	maxDelay := opt.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 3
	}
	downRounds := opt.CrashDownRounds
	if downRounds <= 0 {
		downRounds = 2
	}
	if err := opt.CheckRates(); err != nil {
		return Stats{}, err
	}
	if opt.failureInjection() && opt.Rng == nil {
		return Stats{}, ErrRngRequired
	}

	var stats Stats
	inboxes := make([][]Message, n)
	outs := make([]Payload, n)
	var pending []delayedMsg // in-flight delayed deliveries, insertion-ordered
	var downUntil []int      // first round node i is up again (crash injection)
	var down []bool          // this round's outage mask, nil without crash injection
	if opt.CrashRate > 0 {
		downUntil = make([]int, n)
		down = make([]bool, n)
	}

	for round := 0; round < maxRounds; round++ {
		stats.Rounds++

		// Crash injection: decide this round's outages, then discard the
		// inbox of every down node. Draws happen in node order in this
		// single-threaded section, so every driver consumes the RNG
		// identically.
		if opt.CrashRate > 0 {
			for i := 0; i < n; i++ {
				if downUntil[i] > round {
					continue // still down
				}
				if opt.Rng.Float64() < opt.CrashRate {
					stats.Crashes++
					downUntil[i] = round + downRounds
				}
			}
			for i := 0; i < n; i++ {
				down[i] = downUntil[i] > round
				if down[i] && len(inboxes[i]) > 0 {
					// These deliveries were counted as Messages when they
					// entered the inbox but never reach the node: move
					// them to CrashLost so the balance stays exact.
					stats.CrashLost += int64(len(inboxes[i]))
					stats.Messages -= int64(len(inboxes[i]))
					inboxes[i] = nil
				}
			}
		}

		for i := range outs {
			outs[i] = nil
		}
		if err := step(round, down, inboxes, outs); err != nil {
			return stats, err
		}

		// Deliver. Inboxes are rebuilt from scratch — due delayed messages
		// first (in postponement order), then this round's sends — and
		// stable-sorted by sender so every driver sees identical input order.
		sent := false
		for i := range inboxes {
			inboxes[i] = nil
		}
		if len(pending) > 0 {
			kept := pending[:0]
			for _, d := range pending {
				if d.due > round+1 {
					kept = append(kept, d)
					continue
				}
				inboxes[d.to] = append(inboxes[d.to], d.msg)
				stats.Messages++
				// A due delayed delivery is traffic: the session must run one
				// more round so its destination consumes it, even if no node
				// broadcast this round.
				sent = true
			}
			pending = kept
		}
		for from, payload := range outs {
			if payload == nil {
				continue
			}
			sent = true
			for _, to := range neighbors[from] {
				stats.Attempted++
				deliveries := 1
				if opt.Rng != nil {
					dropRate := opt.DropRate
					if opt.LinkDropRate != nil {
						dropRate = opt.LinkDropRate(from, to)
					}
					if dropRate > 0 && opt.Rng.Float64() < dropRate {
						stats.Dropped++
						continue
					}
					if opt.DupRate > 0 && opt.Rng.Float64() < opt.DupRate {
						deliveries = 2
						stats.Duplicated++
					}
				}
				for d := 0; d < deliveries; d++ {
					if opt.DelayRate > 0 && opt.Rng.Float64() < opt.DelayRate {
						stats.Delayed++
						// An undelayed send is consumed in round+1; a delay
						// of d ∈ [1, maxDelay] rounds pushes that to
						// round+1+d.
						pending = append(pending, delayedMsg{
							due: round + 2 + opt.Rng.Intn(maxDelay),
							to:  to,
							msg: Message{From: from, Payload: payload},
						})
						continue
					}
					inboxes[to] = append(inboxes[to], Message{From: from, Payload: payload})
					stats.Messages++
				}
			}
		}
		for i := range inboxes {
			sort.SliceStable(inboxes[i], func(a, b int) bool {
				return inboxes[i][a].From < inboxes[i][b].From
			})
		}
		if !sent && len(pending) == 0 {
			return stats, nil
		}
	}
	stats.Expired += int64(len(pending))
	return stats, ErrNoQuiescence
}

// ValidateTopology checks that the neighbor relation is symmetric,
// irreflexive and in range.
func ValidateTopology(neighbors [][]int) error {
	n := len(neighbors)
	for i, ns := range neighbors {
		for _, j := range ns {
			if j < 0 || j >= n {
				return errors.New("netsim: neighbor index out of range")
			}
			if j == i {
				return errors.New("netsim: self-loop in topology")
			}
			found := false
			for _, back := range neighbors[j] {
				if back == i {
					found = true
					break
				}
			}
			if !found {
				return errors.New("netsim: asymmetric neighbor relation")
			}
		}
	}
	return nil
}

// Package online implements Algorithm 3: the distributed online algorithm
// for HASTE. Each wireless charger runs an agent that, whenever new
// charging tasks arrive, renegotiates its future orientations with its
// neighbors (chargers sharing at least one known chargeable task) through
// the control-message protocol of the paper:
//
//	msg(ID, TIM, COL, CMD, ΔF_i^{k*}(Q_i), e_i^{k*})
//
// For every future time slot k and color c, agents repeatedly broadcast
// their best marginal gain ΔF; the agent whose bid beats every competing
// neighbor (ties broken by charger ID, as in the paper) commits the
// corresponding dominant-set policy as an S-C tuple, announces it with an
// UPD message, and its neighbors fold the committed contribution into
// their local energy views and rebid. The negotiation for one (k,c) pair
// ends when nobody has a positive marginal left. Afterwards every agent
// samples one color per slot to obtain its scheduling policy X_i, exactly
// as the centralized TabularGreedy does per partition.
//
// Agents only ever use local knowledge: tasks they have seen arrive, their
// own dominant sets over those tasks, and the policies their neighbors
// announced. The rescheduling delay τ is honored by the driver in run.go —
// a negotiation triggered at slot t can only change orientations from slot
// t+τ on.
//
// # Reliability layer
//
// The competitive-ratio argument assumes every committed S-C tuple reaches
// every neighbor; a dropped UPD permanently diverges the loser's energy
// view. With Options.Reliable, UPD commits become reliable within a
// session: every UPD carries a per-agent sequence number, receivers
// acknowledge every receipt (re-acking retransmissions, since the ack
// itself can be lost), and a committed agent re-broadcasts its final tuple
// every round until all neighbors have acked or a retry budget is
// exhausted. Applying a commit is idempotent
// (deduplicated per session by sender), so retransmissions and duplicated
// deliveries never double-count energy. On a failure-free network the
// reliable protocol commits exactly the same tuples as the base protocol;
// the only extra traffic is the acks.
package online

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"haste/internal/core"
	"haste/internal/dominant"
	"haste/internal/netsim"
)

// The four control-message types below are the complete wire vocabulary of
// the protocol. They are exported so the socket substrate (package
// transport) can hand-encode them into its deterministic binary framing;
// every field must round-trip exactly (floats bit-for-bit) for the
// cross-driver equivalence guarantee to hold.

// BidMsg is the CMD=NULL control message: the sender's best marginal for
// the session's (slot, color) pair.
type BidMsg struct {
	Slot, Color int
	Delta       float64
}

// UpdMsg is the CMD=UPD control message: the sender committed the policy
// covering these task IDs for the session's (slot, color) pair. Seq is the
// sender's commit sequence number, strictly increasing across its commits,
// so receivers and acks can identify a commit uniquely.
type UpdMsg struct {
	Slot, Color int
	Seq         uint32
	Covers      []int
}

// AckMsg acknowledges receipt of charger To's UPD with sequence Seq. Acks
// are broadcast (the substrate has no unicast); everyone but To ignores it.
type AckMsg struct {
	Slot, Color int
	To          int
	Seq         uint32
}

// RelMsg is the composite payload used when the reliability layer is on:
// one broadcast per round may carry a bid or an UPD plus any acks owed for
// UPDs received this round.
type RelMsg struct {
	Bid  *BidMsg
	Upd  *UpdMsg
	Acks []AckMsg
}

// agentPhase tracks the bid/decide alternation within a session.
type agentPhase int

const (
	phaseBid agentPhase = iota
	phaseDecide
)

// agent is one charger's negotiation state across a whole renegotiation
// (all sessions of all future slots and colors).
type agent struct {
	id      int
	p       *core.Problem
	colors  int
	samples int
	seed    int64

	// Reliability layer configuration (Options.Reliable).
	reliable    bool
	retryBudget int
	neighbors   []int // session-topology neighbors, for the ack ledger

	policies []dominant.Policy // Γ_i over the tasks this agent knows

	// row is this charger's compiled sparse row (Problem.ChargerRow): its
	// chargeable tasks T_i, ascending by task ID.
	row []core.CoverEntry
	// energy[s][l]: sample s's view of the accumulated energy of task
	// row[l].Task, built from this agent's own commitments and neighbors'
	// UPD messages plus the locked-prefix baseline. Tasks outside T_i are
	// never read, so the view holds only the row.
	energy [][]float64

	// q[k][c]: committed policy index into policies, -1 if none.
	q map[int][]int

	// Per-session state.
	sessionSlot  int
	sessionColor int
	phase        agentPhase
	fixed        bool
	passed       bool
	myBid        float64
	myPol        int

	// Reliability per-session state.
	applied     map[int]uint32 // sender → seq of the commit already folded in
	unacked     map[int]bool   // neighbors that have not acked my commit yet
	retriesLeft int            // retransmissions left for my commit
	myUpd       *UpdMsg        // my committed tuple, retained for retransmits

	// Reliability accounting across the whole renegotiation.
	updSeq      uint32 // sequence number of my last commit
	retransmits int64  // UPD re-broadcasts sent

	// sessionCovers[pol] lists (task, row position, per-slot energy) for
	// the tasks of policy pol that are active in the session slot —
	// precomputed once per session so the per-round rebids only walk
	// live tasks.
	sessionCovers [][]taskEnergy
	// sessionSamples lists the samples whose color for (id, slot) equals
	// the session color.
	sessionSamples []int
	// commitBuf is applyCommit's scratch list of the covers it folds in.
	commitBuf []taskEnergy
}

// taskEnergy pairs a task ID and its position in this agent's row with
// the energy it harvests per fully covered slot.
type taskEnergy struct {
	task int
	pos  int
	de   float64
}

// newAgent builds an agent over the known tasks of its charger's row
// (isKnown is the negotiation's shared known-task mask) with the given
// locked-prefix baseline energies (shared across samples: the locked
// past does not depend on colors). neighbors is the agent's row of the
// session topology, used by the reliability layer's ack ledger.
func newAgent(id int, p *core.Problem, opt Options, isKnown []bool, baseline []float64, neighbors []int) *agent {
	a := &agent{
		id:          id,
		p:           p,
		colors:      opt.Colors,
		samples:     opt.Samples,
		seed:        opt.Seed,
		reliable:    opt.Reliable,
		retryBudget: opt.RetryBudget,
		neighbors:   neighbors,
		row:         p.ChargerRow(id),
		q:           make(map[int][]int),
	}
	a.policies = dominant.ExtractSubset(p.In, id, knownRowTasks(a.row, isKnown))
	n := len(a.row)
	views := make([]float64, a.samples*n)
	a.energy = make([][]float64, a.samples)
	for s := range a.energy {
		a.energy[s] = views[s*n : (s+1)*n]
		for l, ent := range a.row {
			a.energy[s][l] = baseline[ent.Task]
		}
	}
	return a
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

// startSession arms the agent for the (slot, color) negotiation.
func (a *agent) startSession(slot, color int) {
	a.sessionSlot = slot
	a.sessionColor = color
	a.phase = phaseBid
	a.fixed = false
	a.passed = false
	a.applied = nil
	a.unacked = nil
	a.retriesLeft = 0
	a.myUpd = nil

	if cap(a.sessionCovers) < len(a.policies) {
		a.sessionCovers = make([][]taskEnergy, len(a.policies))
	}
	a.sessionCovers = a.sessionCovers[:len(a.policies)]
	// Every cover is chargeable by this agent and therefore present in its
	// sparse row; both lists are ascending, so a two-pointer merge replaces
	// a binary search per cover.
	row := a.row
	for pol := range a.policies {
		a.sessionCovers[pol] = a.sessionCovers[pol][:0]
		if a.policies[pol].Idle {
			continue
		}
		r := 0
		for _, j := range a.policies[pol].Covers {
			for r < len(row) && int(row[r].Task) < j {
				r++
			}
			if r == len(row) {
				break
			}
			if int(row[r].Task) != j {
				continue
			}
			t := &a.p.In.Tasks[j]
			if de := row[r].De; de > 0 && t.ActiveAt(slot) {
				a.sessionCovers[pol] = append(a.sessionCovers[pol], taskEnergy{j, r, de})
			}
		}
	}
	a.sessionSamples = a.sessionSamples[:0]
	for s := 0; s < a.samples; s++ {
		if colorAt(a.seed, s, a.id, slot, a.colors) == color {
			a.sessionSamples = append(a.sessionSamples, s)
		}
	}
	a.recompute()
}

// recompute refreshes the agent's best policy and marginal bid for the
// current session from its local energy view.
func (a *agent) recompute() {
	a.myPol, a.myBid = -1, 0
	for pol := range a.policies {
		if a.policies[pol].Idle {
			continue
		}
		gain := a.policyGain(pol)
		if gain > a.myBid {
			a.myBid, a.myPol = gain, pol
		}
	}
}

// policyGain sums the policy's marginal utility over the samples whose
// color for this agent's (slot) partition matches the session color.
func (a *agent) policyGain(pol int) float64 {
	var gain float64
	for _, s := range a.sessionSamples {
		energy := a.energy[s]
		for _, te := range a.sessionCovers[pol] {
			// WeightedDelta inlines the default linear-bounded utility
			// (bit-identical to the interface expression) when the flat
			// kernel is active, and falls back to it otherwise.
			gain += a.p.WeightedDelta(te.task, energy[te.pos], te.de)
		}
	}
	return gain
}

// applyCommit folds a committed policy (by charger `from`, covering
// `covers`) into the matching samples of the local energy view. Only the
// covers in this agent's row are kept; their energy is read off from's
// row. covers and both rows are ascending, so two two-pointer merges
// find them.
func (a *agent) applyCommit(from int, covers []int, slot, color int) {
	row, fromRow := a.row, a.p.ChargerRow(from)
	a.commitBuf = a.commitBuf[:0]
	r, f := 0, 0
	for _, j := range covers {
		for r < len(row) && int(row[r].Task) < j {
			r++
		}
		if r == len(row) {
			break
		}
		if int(row[r].Task) != j || !a.p.In.Tasks[j].ActiveAt(slot) {
			continue
		}
		for f < len(fromRow) && int(fromRow[f].Task) < j {
			f++
		}
		if f < len(fromRow) && int(fromRow[f].Task) == j {
			a.commitBuf = append(a.commitBuf, taskEnergy{j, r, fromRow[f].De})
		}
	}
	for s := 0; s < a.samples; s++ {
		if colorAt(a.seed, s, from, slot, a.colors) != color {
			continue
		}
		energy := a.energy[s]
		for _, te := range a.commitBuf {
			energy[te.pos] += te.de
		}
	}
}

// Step implements netsim.Node for the current session.
func (a *agent) Step(inbox []netsim.Message) (netsim.Payload, bool) {
	if a.reliable {
		return a.stepReliable(inbox)
	}
	return a.stepBasic(inbox)
}

// stepBasic is the paper's best-effort protocol: a lost UPD silently
// diverges the loser's energy view.
func (a *agent) stepBasic(inbox []netsim.Message) (netsim.Payload, bool) {
	switch a.phase {
	case phaseBid:
		// Fold in UPDs from last round's winners, then rebid. Each
		// sender's commit is applied at most once per session, which
		// makes duplicated and delay-reordered deliveries idempotent.
		for _, m := range inbox {
			upd, ok := m.Payload.(UpdMsg)
			if !ok || upd.Slot != a.sessionSlot || upd.Color != a.sessionColor {
				continue
			}
			if _, done := a.applied[m.From]; done {
				continue
			}
			if a.applied == nil {
				a.applied = make(map[int]uint32)
			}
			a.applied[m.From] = upd.Seq
			a.applyCommit(m.From, upd.Covers, upd.Slot, upd.Color)
		}
		if a.fixed || a.passed {
			return nil, true
		}
		a.recompute()
		if a.myBid <= 1e-15 {
			a.passed = true
			return nil, true
		}
		a.phase = phaseDecide
		return BidMsg{Slot: a.sessionSlot, Color: a.sessionColor, Delta: a.myBid}, false

	case phaseDecide:
		a.phase = phaseBid
		if a.fixed || a.passed {
			return nil, true
		}
		// The paper's rule: commit iff our ΔF beats every competing
		// neighbor's, breaking exact ties by charger ID.
		for _, m := range inbox {
			bid, ok := m.Payload.(BidMsg)
			if !ok || bid.Slot != a.sessionSlot || bid.Color != a.sessionColor {
				continue
			}
			if bid.Delta > a.myBid || (bid.Delta == a.myBid && m.From < a.id) {
				return nil, false // lost this round; rebid next round
			}
		}
		a.fixed = true
		a.commitOwn()
		a.updSeq++
		return UpdMsg{Slot: a.sessionSlot, Color: a.sessionColor, Seq: a.updSeq, Covers: a.policies[a.myPol].Covers}, true
	}
	return nil, true
}

// stepReliable is the ack/retransmit variant: identical negotiation
// decisions, but commits are acknowledged and re-broadcast until every
// neighbor confirmed receipt (or the retry budget ran out).
func (a *agent) stepReliable(inbox []netsim.Message) (netsim.Payload, bool) {
	var out RelMsg
	// Process UPDs and acks every round, whatever the phase: delayed or
	// retransmitted UPDs may arrive in a decide round and must still be
	// applied and (re-)acked.
	for _, m := range inbox {
		pkt, ok := m.Payload.(RelMsg)
		if !ok {
			continue
		}
		if upd := pkt.Upd; upd != nil && upd.Slot == a.sessionSlot && upd.Color == a.sessionColor {
			if _, done := a.applied[m.From]; !done {
				if a.applied == nil {
					a.applied = make(map[int]uint32)
				}
				a.applied[m.From] = upd.Seq
				a.applyCommit(m.From, upd.Covers, upd.Slot, upd.Color)
			}
			// Ack every receipt: the previous ack may itself have been
			// lost, and retransmissions stop only on a received ack.
			out.Acks = append(out.Acks, AckMsg{Slot: a.sessionSlot, Color: a.sessionColor, To: m.From, Seq: upd.Seq})
		}
		for _, ack := range pkt.Acks {
			if ack.To == a.id && ack.Slot == a.sessionSlot && ack.Color == a.sessionColor &&
				a.myUpd != nil && ack.Seq == a.myUpd.Seq {
				delete(a.unacked, m.From)
			}
		}
	}

	switch a.phase {
	case phaseBid:
		a.phase = phaseDecide
		if !a.fixed && !a.passed {
			a.recompute()
			if a.myBid <= 1e-15 {
				a.passed = true
			} else {
				out.Bid = &BidMsg{Slot: a.sessionSlot, Color: a.sessionColor, Delta: a.myBid}
			}
		}

	case phaseDecide:
		a.phase = phaseBid
		if !a.fixed && !a.passed {
			// Bids are read only in this decide round; a bid postponed by
			// delay injection past it is intentionally dropped (unlike UPDs
			// and acks, which are processed every round above). Two agents
			// may then both conclude they won and commit overlapping tuples
			// — safe because applyCommit is idempotent and the divergence
			// only lowers utility, which is the documented degradation model
			// the chaos sweeps measure. Retransmitting bids would instead
			// stall every session for MaxDelay rounds.
			won := true
			for _, m := range inbox {
				pkt, ok := m.Payload.(RelMsg)
				if !ok || pkt.Bid == nil {
					continue
				}
				bid := pkt.Bid
				if bid.Slot != a.sessionSlot || bid.Color != a.sessionColor {
					continue
				}
				if bid.Delta > a.myBid || (bid.Delta == a.myBid && m.From < a.id) {
					won = false
					break
				}
			}
			if won {
				a.fixed = true
				a.commitOwn()
				a.updSeq++
				a.myUpd = &UpdMsg{Slot: a.sessionSlot, Color: a.sessionColor, Seq: a.updSeq, Covers: a.policies[a.myPol].Covers}
				a.unacked = make(map[int]bool, len(a.neighbors))
				for _, nb := range a.neighbors {
					a.unacked[nb] = true
				}
				a.retriesLeft = a.retryBudget
				out.Upd = a.myUpd
			}
		}
	}

	// Session epilogue: while any neighbor has not acked the committed
	// tuple and budget remains, re-broadcast it. This runs every round —
	// the engine ends a session after one fully silent round, so an idle
	// wait for in-flight acks would let the session die under total loss.
	// A retransmission racing an in-flight ack is harmless: applying a
	// commit is idempotent and the re-ack it triggers carries no reply.
	if a.fixed && out.Upd == nil && len(a.unacked) > 0 && a.retriesLeft > 0 {
		a.retriesLeft--
		a.retransmits++
		out.Upd = a.myUpd
	}

	done := (a.fixed && len(a.unacked) == 0) || a.passed
	if out.Bid == nil && out.Upd == nil && len(out.Acks) == 0 {
		return nil, done
	}
	return out, done
}

// unackedCount reports how many neighbors never acked this agent's commit
// in the session that just ended (0 when it never committed).
func (a *agent) unackedCount() int {
	if !a.fixed {
		return 0
	}
	return len(a.unacked)
}

// commitOwn records the winning policy as the S-C tuple for (slot, color)
// and applies it to the agent's own matching samples.
func (a *agent) commitOwn() {
	row, ok := a.q[a.sessionSlot]
	if !ok {
		row = make([]int, a.colors)
		for c := range row {
			row[c] = -1
		}
		a.q[a.sessionSlot] = row
	}
	row[a.sessionColor] = a.myPol
	a.applyCommit(a.id, a.policies[a.myPol].Covers, a.sessionSlot, a.sessionColor)
}

// finalPlan samples one color per slot (lines 22–24 of Algorithm 3) and
// returns the agent's orientation commands for slots [from, to).
// Unassigned slots are NaN (keep the previous physical orientation).
// rng is drawn only when there is a color to choose (C > 1) and may be
// nil otherwise.
func (a *agent) finalPlan(from, to int, rng *rand.Rand) []float64 {
	plan := make([]float64, to-from)
	slots := make([]int, 0, len(a.q))
	for k := range a.q {
		slots = append(slots, k)
	}
	sort.Ints(slots)
	for i := range plan {
		plan[i] = math.NaN()
	}
	for _, k := range slots {
		if k < from || k >= to {
			continue
		}
		c := 0
		if a.colors > 1 {
			c = rng.Intn(a.colors)
		}
		if pol := a.q[k][c]; pol >= 0 {
			plan[k-from] = a.policies[pol].Orientation
		}
	}
	return plan
}

// colorAt deterministically assigns sample s's color for partition (i,k).
// All agents share the seed, so everyone agrees on every partition's color
// vector without exchanging it — the distributed analogue of the common
// random numbers used by the centralized TabularGreedy.
func colorAt(seed int64, s, i, k, colors int) int {
	if colors <= 1 {
		return 0
	}
	x := uint64(seed) ^ uint64(s)*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9 ^ uint64(k)*0x94d049bb133111eb
	// splitmix64 finalizer.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	// Multiply-shift (Lemire) reduction onto [0, colors): x % colors
	// over-weights the first 2^64 mod colors residues for
	// non-power-of-two color counts.
	hi, _ := bits.Mul64(x, uint64(colors))
	return int(hi)
}

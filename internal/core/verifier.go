package core

import (
	"slices"
	"sort"

	"lifting/internal/gossip"
	"lifting/internal/history"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/rng"
	"lifting/internal/sim"
)

// Verifier is the per-node LiFTinG component. It implements gossip.Monitor
// (to observe the node's own protocol actions) and gossip.AuxHandler (to
// process verification traffic addressed to the node):
//
//   - requester side: direct verification of serves (§5.2);
//   - receiver side: the ack duty after each propose phase (§5.2);
//   - server side: direct cross-checking — await acks, poll witnesses with
//     probability pdcc, blame per Table 1;
//   - witness side: answer Confirm messages from its history and record the
//     askers (the raw material of the fanin audit, §5.3);
//   - audited side: serve AuditReq/AuditPoll messages.
//
// A Verifier is driven entirely by its node's execution context; it has no
// goroutines of its own.
type Verifier struct {
	self     msg.NodeID
	cfg      Config
	ctx      sim.Context
	netw     net.Network
	rand     *rng.Stream
	hist     *history.Log
	behavior gossip.Behavior
	sink     BlameSink

	serveChecks  []*serveCheck
	expectations map[msg.NodeID][]*ackExpectation
	sessions     map[sessionKey]*confirmSession
}

// serveCheck tracks one sent request: the requested chunks must arrive
// before the serve timeout.
type serveCheck struct {
	server   msg.NodeID
	missing  map[msg.ChunkID]bool
	total    int
	resolved bool
}

// ackExpectation tracks one serve interaction — everything served against
// one proposal period: the receiver must acknowledge forwarding these
// chunks within the ack timeout.
type ackExpectation struct {
	period    msg.Period
	chunks    []msg.ChunkID
	satisfied bool
}

type sessionKey struct {
	suspect msg.NodeID
	period  msg.Period
}

// confirmSession collects witness answers about one suspect ack.
type confirmSession struct {
	witnesses []msg.NodeID
	positive  map[msg.NodeID]bool
	closed    bool
}

// NewVerifier creates the LiFTinG component of one node. behavior is the
// node's own behavior (honest verifiers follow the protocol; freerider
// behaviors lie in acks, confirmations and audits). cfg zero-timeouts are
// defaulted from the period.
func NewVerifier(self msg.NodeID, cfg Config, ctx sim.Context, netw net.Network, rand *rng.Stream, hist *history.Log, behavior gossip.Behavior, sink BlameSink) *Verifier {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if behavior == nil {
		behavior = gossip.Honest{}
	}
	return &Verifier{
		self:         self,
		cfg:          cfg.withDefaults(),
		ctx:          ctx,
		netw:         netw,
		rand:         rand,
		hist:         hist,
		behavior:     behavior,
		sink:         sink,
		expectations: make(map[msg.NodeID][]*ackExpectation),
		sessions:     make(map[sessionKey]*confirmSession),
	}
}

var (
	_ gossip.Monitor    = (*Verifier)(nil)
	_ gossip.AuxHandler = (*Verifier)(nil)
)

func (v *Verifier) blame(target msg.NodeID, value float64, reason msg.BlameReason) {
	if v.sink != nil && value > 0 {
		v.sink.Blame(target, value, reason)
	}
}

// --- gossip.Monitor ---

// OnProposePhase implements gossip.Monitor: the ack duty. For every node
// that served chunks during the previous period, send an Ack naming the
// chunks forwarded and the partners they went to (§5.2). Freerider behaviors
// may lie about both.
func (v *Verifier) OnProposePhase(p msg.Period, partners []msg.NodeID, proposed []msg.ChunkID, serversLastPeriod map[msg.NodeID][]msg.ChunkID) {
	// Bad-mouthing behaviors piggyback fabricated blames on the period
	// boundary; the sink routes them like any verification blame because
	// managers cannot tell them apart (§5.1).
	for _, a := range v.behavior.SpamBlames(v.rand) {
		v.blame(a.Target, a.Value, a.Reason)
	}
	if len(serversLastPeriod) == 0 {
		return
	}
	claimedPartners := v.behavior.AckPartners(partners)
	servers := make([]msg.NodeID, 0, len(serversLastPeriod))
	//lint:allow ordered-map-range collect-then-sort: keys are sorted before acks are sent
	for server := range serversLastPeriod {
		servers = append(servers, server)
	}
	sort.Slice(servers, func(i, j int) bool { return servers[i] < servers[j] })
	for _, server := range servers {
		ackChunks := v.behavior.AckChunks(serversLastPeriod[server], proposed)
		v.netw.Send(v.self, server, &msg.Ack{
			Sender:   v.self,
			Period:   p,
			Chunks:   ackChunks,
			Partners: claimedPartners,
		}, net.Unreliable)
	}
}

// OnRequestSent implements gossip.Monitor: direct verification. The
// requested chunks must arrive before the serve timeout or the proposer is
// blamed f·|missing|/|R| (Table 1).
func (v *Verifier) OnRequestSent(proposer msg.NodeID, _ msg.Period, requested []msg.ChunkID) {
	if len(requested) == 0 {
		return
	}
	sc := &serveCheck{
		server:  proposer,
		missing: make(map[msg.ChunkID]bool, len(requested)),
		total:   len(requested),
	}
	for _, c := range requested {
		sc.missing[c] = true
	}
	v.serveChecks = append(v.serveChecks, sc)
	v.ctx.After(v.cfg.ServeTimeout, func() {
		sc.resolved = true
		if n := len(sc.missing); n > 0 {
			v.blame(sc.server, PartialServeBlame(v.cfg.F, sc.total, sc.total-n), msg.ReasonPartialServe)
		}
		v.gcServeChecks()
	})
}

// OnServeReceived implements gossip.Monitor: mark a requested chunk as
// delivered.
func (v *Verifier) OnServeReceived(server msg.NodeID, chunk msg.ChunkID) {
	for _, sc := range v.serveChecks {
		if sc.resolved || sc.server != server {
			continue
		}
		if sc.missing[chunk] {
			delete(sc.missing, chunk)
			return
		}
	}
}

// OnServeInvalid implements gossip.Monitor: content-plane verification. A
// serve whose payload is missing or fails hash verification is as useless as
// no serve at all, so the server is blamed f immediately. The chunk is
// cleared from the pending serve check so the serve timeout does not blame
// the same failure twice.
func (v *Verifier) OnServeInvalid(server msg.NodeID, chunk msg.ChunkID) {
	for _, sc := range v.serveChecks {
		if sc.resolved || sc.server != server {
			continue
		}
		if sc.missing[chunk] {
			delete(sc.missing, chunk)
			break
		}
	}
	v.blame(server, InvalidPayloadBlame(v.cfg.F), msg.ReasonInvalidPayload)
}

// OnServed implements gossip.Monitor: direct cross-checking, server side.
// The receiver must acknowledge forwarding the served chunks within the ack
// timeout, or be blamed f (§5.2). A missing ack costs f once per serve
// interaction (Table 1; the (a)-term of Equation 3), so serves answering
// later requests against the same proposal period — loss-recovery retries
// split one proposal into several single-chunk requests — join the open
// expectation instead of opening one each.
func (v *Verifier) OnServed(receiver msg.NodeID, p msg.Period, served []msg.ChunkID) {
	for _, exp := range v.expectations[receiver] {
		if !exp.satisfied && exp.period == p {
			// Clip first so the append copies rather than writing into
			// the array of the first batch's served slice.
			exp.chunks = append(slices.Clip(exp.chunks), served...)
			return
		}
	}
	exp := &ackExpectation{period: p, chunks: served}
	v.expectations[receiver] = append(v.expectations[receiver], exp)
	v.ctx.After(v.cfg.AckTimeout, func() {
		if !exp.satisfied {
			exp.satisfied = true // close it; blame exactly once
			v.blame(receiver, NoAckBlame(v.cfg.F), msg.ReasonNoAck)
		}
		v.gcExpectations(receiver)
	})
}

func (v *Verifier) gcServeChecks() {
	live := v.serveChecks[:0]
	for _, sc := range v.serveChecks {
		if !sc.resolved {
			live = append(live, sc)
		}
	}
	v.serveChecks = live
}

func (v *Verifier) gcExpectations(receiver msg.NodeID) {
	exps := v.expectations[receiver]
	live := exps[:0]
	for _, e := range exps {
		if !e.satisfied {
			live = append(live, e)
		}
	}
	if len(live) == 0 {
		delete(v.expectations, receiver)
		return
	}
	v.expectations[receiver] = live
}

// --- gossip.AuxHandler ---

// HandleAux implements gossip.AuxHandler: verification traffic addressed to
// this node.
func (v *Verifier) HandleAux(from msg.NodeID, m msg.Message) bool {
	switch mm := m.(type) {
	case *msg.Ack:
		v.onAck(from, mm)
	case *msg.Confirm:
		v.onConfirm(from, mm)
	case *msg.ConfirmResp:
		v.onConfirmResp(from, mm)
	case *msg.AuditReq:
		v.onAuditReq(from, mm)
	case *msg.AuditPoll:
		v.onAuditPoll(from, mm)
	default:
		return false
	}
	return true
}

// onAck is the server-side handling of a receiver's acknowledgement: check
// the claimed fanout, match pending expectations, and with probability pdcc
// launch the witness poll.
func (v *Verifier) onAck(from msg.NodeID, ack *msg.Ack) {
	if len(ack.Partners) < v.cfg.F {
		v.blame(from, FanoutBlame(v.cfg.F, len(ack.Partners)), msg.ReasonFanoutDecrease)
	}
	acked := make(map[msg.ChunkID]bool, len(ack.Chunks))
	for _, c := range ack.Chunks {
		acked[c] = true
	}
	for _, exp := range v.expectations[from] {
		if exp.satisfied {
			continue
		}
		covered := true
		for _, c := range exp.chunks {
			if !acked[c] {
				covered = false
				break
			}
		}
		if !covered {
			// The ack does not cover this serve batch; leave the
			// expectation pending — the timeout will blame f ((a) in
			// Equation 3 of the analysis).
			continue
		}
		exp.satisfied = true
		if len(ack.Partners) > 0 && v.rand.Bernoulli(v.cfg.Pdcc) {
			v.startConfirmSession(from, ack, exp.chunks)
		}
	}
	v.gcExpectations(from)
}

func (v *Verifier) startConfirmSession(suspect msg.NodeID, ack *msg.Ack, chunks []msg.ChunkID) {
	key := sessionKey{suspect: suspect, period: ack.Period}
	if _, dup := v.sessions[key]; dup {
		// One session per suspect propose phase is enough: a second serve
		// batch covered by the same ack shares the same testimony.
		return
	}
	s := &confirmSession{
		witnesses: ack.Partners,
		positive:  make(map[msg.NodeID]bool, len(ack.Partners)),
	}
	v.sessions[key] = s
	for _, w := range ack.Partners {
		v.netw.Send(v.self, w, &msg.Confirm{
			Sender:  v.self,
			Suspect: suspect,
			Period:  ack.Period,
			Chunks:  chunks,
		}, net.Unreliable)
	}
	v.ctx.After(v.cfg.ConfirmTimeout, func() {
		s.closed = true
		contradictions := 0
		for _, w := range s.witnesses {
			if !s.positive[w] {
				contradictions++
			}
		}
		v.blame(suspect, ContradictionBlame(contradictions), msg.ReasonPartialPropose)
		delete(v.sessions, key)
	})
}

// onConfirm is the witness duty: answer from the local history and record
// the asker for the fanin audit (§5.3).
func (v *Verifier) onConfirm(from msg.NodeID, c *msg.Confirm) {
	truth := v.hist.HasRecentProposalFrom(c.Suspect, c.Chunks)
	answer := v.behavior.ConfirmAnswer(c.Suspect, truth)
	v.hist.RecordConfirmAsker(v.hist.Newest(), c.Suspect, from)
	v.netw.Send(v.self, from, &msg.ConfirmResp{
		Sender:    v.self,
		Suspect:   c.Suspect,
		Period:    c.Period,
		Confirmed: answer,
	}, net.Unreliable)
}

func (v *Verifier) onConfirmResp(from msg.NodeID, r *msg.ConfirmResp) {
	s, ok := v.sessions[sessionKey{suspect: r.Suspect, period: r.Period}]
	if !ok || s.closed {
		return
	}
	if r.Confirmed {
		s.positive[from] = true
	}
}

// onAuditReq serves a history snapshot over the reliable transport,
// possibly forged by a freerider behavior.
func (v *Verifier) onAuditReq(from msg.NodeID, req *msg.AuditReq) {
	horizon := v.cfg.HistoryPeriods
	if req.Horizon > 0 {
		if periods := int(req.Horizon / v.cfg.Period); periods > 0 && periods < horizon {
			horizon = periods
		}
	}
	snap := v.hist.Snapshot(v.self, horizon)
	snap = v.behavior.ForgeAudit(snap)
	v.netw.Send(v.self, from, snap, net.Reliable)
}

// onAuditPoll answers an a-posteriori cross-check: did the suspect really
// propose these chunks to me, and who asked me to confirm the suspect's
// pushes (the fanin evidence).
func (v *Verifier) onAuditPoll(from msg.NodeID, p *msg.AuditPoll) {
	truth := v.hist.HasRecentProposalFrom(p.Suspect, p.Chunks)
	answer := v.behavior.ConfirmAnswer(p.Suspect, truth)
	v.netw.Send(v.self, from, &msg.AuditPollResp{
		Sender:    v.self,
		Suspect:   p.Suspect,
		Period:    p.Period,
		Confirmed: answer,
		Askers:    v.hist.AskersFor(p.Suspect, 0),
	}, net.Reliable)
}

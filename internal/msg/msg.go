// Package msg defines the protocol vocabulary of the three-phase gossip
// dissemination protocol (§3 of the paper) and of LiFTinG's verification
// machinery (§5): propose/request/serve, ack/confirm/confirm-response for
// direct cross-checking, blame/score traffic for the reputation substrate,
// and the audit messages of local history auditing.
//
// Every message carries an explicit wire-size model so the simulator can
// account bandwidth without serializing each event, and a real binary codec
// (see codec.go) used by the UDP transport and the codec tests.
package msg

import "time"

// NodeID identifies a node in the system.
type NodeID uint32

// NoNode is the zero NodeID, used when a field is absent.
const NoNode NodeID = 0xFFFFFFFF

// ChunkID identifies a stream chunk. Chunks are numbered consecutively from
// zero by the source, so a ChunkID also encodes the chunk's position in the
// stream.
type ChunkID uint32

// Period is a gossip-period index (k in the paper's k·Tg).
type Period uint32

// Kind discriminates message types on the wire.
type Kind uint8

// Message kinds. Values are part of the wire format.
const (
	KindPropose Kind = iota + 1
	KindRequest
	KindServe
	KindAck
	KindConfirm
	KindConfirmResp
	KindBlame
	KindScoreReq
	KindScoreResp
	KindExpel
	KindAuditReq
	KindAuditResp
	KindAuditPoll
	KindAuditPollResp
)

var kindNames = map[Kind]string{
	KindPropose:       "propose",
	KindRequest:       "request",
	KindServe:         "serve",
	KindAck:           "ack",
	KindConfirm:       "confirm",
	KindConfirmResp:   "confirm-resp",
	KindBlame:         "blame",
	KindScoreReq:      "score-req",
	KindScoreResp:     "score-resp",
	KindExpel:         "expel",
	KindAuditReq:      "audit-req",
	KindAuditResp:     "audit-resp",
	KindAuditPoll:     "audit-poll",
	KindAuditPollResp: "audit-poll-resp",
}

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "unknown"
}

// IsVerification reports whether the kind belongs to LiFTinG (as opposed to
// the underlying dissemination protocol). Used by the overhead accounting of
// Table 5.
func (k Kind) IsVerification() bool {
	switch k {
	case KindPropose, KindRequest, KindServe:
		return false
	default:
		return true
	}
}

// Wire-size model constants, in bytes. headerSize approximates the UDP/IP
// header plus our own kind/sender framing; the exact values only matter for
// the relative overhead numbers of Table 5, which compare verification bytes
// against stream bytes under the same model.
const (
	headerSize   = 28 + 5 // IP+UDP header, kind byte, 4-byte sender
	nodeIDSize   = 4
	chunkIDSize  = 4
	periodSize   = 4
	float64Size  = 8
	boolSize     = 1
	lenPrefix    = 2
	durationSize = 8
)

// Message is implemented by every protocol and verification message.
type Message interface {
	Kind() Kind
	// From returns the sending node.
	From() NodeID
	// WireSize returns the modelled size of the message on the wire, in
	// bytes, including transport headers.
	WireSize() int
}

// Propose advertises the set of chunks received since the sender's last
// propose phase (§3, propose phase).
type Propose struct {
	Sender NodeID
	Period Period
	Chunks []ChunkID
	// Origins optionally carries, per chunk, the node the sender claims to
	// have received the chunk from. Honest nodes report their true servers;
	// a man-in-the-middle freerider (§5.2, Fig. 8b) substitutes a colluder.
	// len(Origins) is either 0 or len(Chunks).
	Origins []NodeID
}

// Kind implements Message.
func (m *Propose) Kind() Kind { return KindPropose }

// From implements Message.
func (m *Propose) From() NodeID { return m.Sender }

// WireSize implements Message.
func (m *Propose) WireSize() int {
	return headerSize + periodSize + lenPrefix + len(m.Chunks)*chunkIDSize + lenPrefix + len(m.Origins)*nodeIDSize
}

// Request asks the proposer to serve the subset of proposed chunks the
// requester needs (§3, request phase).
type Request struct {
	Sender NodeID
	Period Period
	Chunks []ChunkID
}

// Kind implements Message.
func (m *Request) Kind() Kind { return KindRequest }

// From implements Message.
func (m *Request) From() NodeID { return m.Sender }

// WireSize implements Message.
func (m *Request) WireSize() int {
	return headerSize + periodSize + lenPrefix + len(m.Chunks)*chunkIDSize
}

// MaxChunkPayload bounds the payload bytes one Serve may carry (and the
// modelled PayloadSize). It is a codec-level defense: a remote peer claiming
// a multi-gigabyte chunk must produce a decode error, not an allocation.
const MaxChunkPayload = 1 << 20

// Serve delivers one chunk (§3, serving phase). Since frame v3 the message
// carries the real payload bytes plus their 64-bit content hash, so
// receivers verify what they were served. Payload may be nil in
// modelled-only runs (bookkeeping without a content plane); PayloadSize then
// carries the modelled chunk size for bandwidth accounting.
type Serve struct {
	Sender NodeID
	Period Period
	Chunk  ChunkID
	// PayloadSize is the modelled chunk size in bytes. When Payload is
	// non-nil the wire carries the real bytes and this field equals
	// len(Payload).
	PayloadSize int
	// Hash is the 64-bit content hash (content.HashBytes) of the chunk payload
	// (content.HashBytes). Zero in modelled-only runs.
	Hash uint64
	// Payload is the chunk content. Decode aliases the input buffer —
	// callers that retain the message beyond the buffer's lifetime must
	// copy (the UDP transport clones it out of its reused receive buffer).
	Payload []byte
}

// Kind implements Message.
func (m *Serve) Kind() Kind { return KindServe }

// From implements Message.
func (m *Serve) From() NodeID { return m.Sender }

// WireSize implements Message.
func (m *Serve) WireSize() int {
	p := m.PayloadSize
	if m.Payload != nil {
		p = len(m.Payload)
	}
	return headerSize + periodSize + chunkIDSize + 4 + 8 + 4 + p
}

// Ack tells a previous server which partners the sender forwarded the served
// chunks to (§5.2): "p1 acknowledges to p0 that it proposed ci to a set of f
// nodes". Always sent, even when pdcc = 0 (this is why Table 5 shows nonzero
// overhead at pdcc = 0).
type Ack struct {
	Sender NodeID
	// Period is the gossip period in which the sender proposed the chunks.
	Period Period
	// Chunks are the chunk ids received from the ack's destination.
	Chunks []ChunkID
	// Partners are the f nodes the sender claims to have proposed to.
	Partners []NodeID
}

// Kind implements Message.
func (m *Ack) Kind() Kind { return KindAck }

// From implements Message.
func (m *Ack) From() NodeID { return m.Sender }

// WireSize implements Message.
func (m *Ack) WireSize() int {
	return headerSize + periodSize + lenPrefix + len(m.Chunks)*chunkIDSize + lenPrefix + len(m.Partners)*nodeIDSize
}

// Confirm asks a witness whether it received a proposal from Suspect
// containing Chunks (§5.2, sent with probability pdcc).
type Confirm struct {
	Sender  NodeID
	Suspect NodeID
	Period  Period
	Chunks  []ChunkID
}

// Kind implements Message.
func (m *Confirm) Kind() Kind { return KindConfirm }

// From implements Message.
func (m *Confirm) From() NodeID { return m.Sender }

// WireSize implements Message.
func (m *Confirm) WireSize() int {
	return headerSize + nodeIDSize + periodSize + lenPrefix + len(m.Chunks)*chunkIDSize
}

// ConfirmResp is the witness's yes/no answer to a Confirm.
type ConfirmResp struct {
	Sender  NodeID
	Suspect NodeID
	Period  Period
	// Confirmed reports whether the witness received a proposal from Suspect
	// containing all the chunks in the Confirm.
	Confirmed bool
}

// Kind implements Message.
func (m *ConfirmResp) Kind() Kind { return KindConfirmResp }

// From implements Message.
func (m *ConfirmResp) From() NodeID { return m.Sender }

// WireSize implements Message.
func (m *ConfirmResp) WireSize() int {
	return headerSize + nodeIDSize + periodSize + boolSize
}

// BlameReason classifies why a blame was emitted (Table 1 / Table 2).
type BlameReason uint8

// Blame reasons.
const (
	ReasonUnknown          BlameReason = iota
	ReasonFanoutDecrease               // fewer than f partners acknowledged
	ReasonPartialPropose               // served chunks not further proposed
	ReasonPartialServe                 // requested chunks not served
	ReasonNoAck                        // no acknowledgement received at all
	ReasonAuditUnconfirmed             // history entry not confirmed by alleged receiver
	ReasonAuditEntropy                 // entropy check failed (leads to expulsion)
	ReasonPeriodStretch                // too few proposals in history
	ReasonInvalidPayload               // served payload missing or hash mismatch
)

var reasonNames = map[BlameReason]string{
	ReasonUnknown:          "unknown",
	ReasonFanoutDecrease:   "fanout-decrease",
	ReasonPartialPropose:   "partial-propose",
	ReasonPartialServe:     "partial-serve",
	ReasonNoAck:            "no-ack",
	ReasonAuditUnconfirmed: "audit-unconfirmed",
	ReasonAuditEntropy:     "audit-entropy",
	ReasonPeriodStretch:    "period-stretch",
	ReasonInvalidPayload:   "invalid-payload",
}

// String returns the lowercase name of the reason.
func (r BlameReason) String() string {
	if s, ok := reasonNames[r]; ok {
		return s
	}
	return "unknown"
}

// Blame carries a blame value against Target to one of Target's score
// managers (§5.1).
type Blame struct {
	Sender NodeID
	Target NodeID
	Value  float64
	Reason BlameReason
}

// Kind implements Message.
func (m *Blame) Kind() Kind { return KindBlame }

// From implements Message.
func (m *Blame) From() NodeID { return m.Sender }

// WireSize implements Message.
func (m *Blame) WireSize() int {
	return headerSize + nodeIDSize + float64Size + 1
}

// ScoreReq asks a manager for its copy of Target's score.
type ScoreReq struct {
	Sender NodeID
	Target NodeID
}

// Kind implements Message.
func (m *ScoreReq) Kind() Kind { return KindScoreReq }

// From implements Message.
func (m *ScoreReq) From() NodeID { return m.Sender }

// WireSize implements Message.
func (m *ScoreReq) WireSize() int { return headerSize + nodeIDSize }

// ScoreResp returns a manager's copy of Target's score. Tracked reports
// whether the responding manager actually holds a score copy for Target: a
// manager that lost (or never received) the target through a churn handoff
// answers Tracked=false, and min-vote readers must discard such replies —
// a fabricated zero score would silently poison the minimum (§5.1).
type ScoreResp struct {
	Sender   NodeID
	Target   NodeID
	Score    float64
	Expelled bool
	Tracked  bool
}

// Kind implements Message.
func (m *ScoreResp) Kind() Kind { return KindScoreResp }

// From implements Message.
func (m *ScoreResp) From() NodeID { return m.Sender }

// WireSize implements Message.
func (m *ScoreResp) WireSize() int {
	return headerSize + nodeIDSize + float64Size + 2*boolSize
}

// Expel announces that Target has been expelled (score below η or failed
// entropy audit).
type Expel struct {
	Sender NodeID
	Target NodeID
	Reason BlameReason
}

// Kind implements Message.
func (m *Expel) Kind() Kind { return KindExpel }

// From implements Message.
func (m *Expel) From() NodeID { return m.Sender }

// WireSize implements Message.
func (m *Expel) WireSize() int { return headerSize + nodeIDSize + 1 }

// ProposalRecord is one fanout entry of a node's local history: a proposal
// sent to Partner during Period advertising Chunks.
type ProposalRecord struct {
	Period  Period
	Partner NodeID
	Chunks  []ChunkID
}

// WireSize returns the modelled serialized size of the record.
func (r *ProposalRecord) WireSize() int {
	return periodSize + nodeIDSize + lenPrefix + len(r.Chunks)*chunkIDSize
}

// ServeRecord is one fanin entry of a node's local history: Server served
// Chunks to the node during Period.
type ServeRecord struct {
	Period Period
	Server NodeID
	Chunks []ChunkID
}

// WireSize returns the modelled serialized size of the record.
func (r *ServeRecord) WireSize() int {
	return periodSize + nodeIDSize + lenPrefix + len(r.Chunks)*chunkIDSize
}

// AuditReq asks the target node for its bounded local history (§5.3). Sent
// over the reliable transport.
type AuditReq struct {
	Sender NodeID
	// Horizon is the number of seconds of history requested (h in the
	// paper); encoded as a duration.
	Horizon time.Duration
}

// Kind implements Message.
func (m *AuditReq) Kind() Kind { return KindAuditReq }

// From implements Message.
func (m *AuditReq) From() NodeID { return m.Sender }

// WireSize implements Message.
func (m *AuditReq) WireSize() int { return headerSize + durationSize }

// AuditResp carries the audited node's history snapshot: all fanout and
// fanin entries within the horizon.
type AuditResp struct {
	Sender    NodeID
	Proposals []ProposalRecord
	Serves    []ServeRecord
}

// Kind implements Message.
func (m *AuditResp) Kind() Kind { return KindAuditResp }

// From implements Message.
func (m *AuditResp) From() NodeID { return m.Sender }

// WireSize implements Message.
func (m *AuditResp) WireSize() int {
	n := headerSize + lenPrefix + lenPrefix
	for i := range m.Proposals {
		n += m.Proposals[i].WireSize()
	}
	for i := range m.Serves {
		n += m.Serves[i].WireSize()
	}
	return n
}

// AuditPoll asks an alleged receiver whether Suspect really proposed Chunks
// to it during Period (a-posteriori cross-checking, §5.3). Sent over the
// reliable transport.
type AuditPoll struct {
	Sender  NodeID
	Suspect NodeID
	Period  Period
	Chunks  []ChunkID
}

// Kind implements Message.
func (m *AuditPoll) Kind() Kind { return KindAuditPoll }

// From implements Message.
func (m *AuditPoll) From() NodeID { return m.Sender }

// WireSize implements Message.
func (m *AuditPoll) WireSize() int {
	return headerSize + nodeIDSize + periodSize + lenPrefix + len(m.Chunks)*chunkIDSize
}

// AuditPollResp answers an AuditPoll. Confirmed reports whether the polled
// node received the proposal; Askers lists the nodes that sent Confirm
// messages about Suspect to the polled node, which the auditor aggregates
// into the fanin multiset F'h (§5.3).
type AuditPollResp struct {
	Sender    NodeID
	Suspect   NodeID
	Period    Period
	Confirmed bool
	Askers    []NodeID
}

// Kind implements Message.
func (m *AuditPollResp) Kind() Kind { return KindAuditPollResp }

// From implements Message.
func (m *AuditPollResp) From() NodeID { return m.Sender }

// WireSize implements Message.
func (m *AuditPollResp) WireSize() int {
	return headerSize + nodeIDSize + periodSize + boolSize + lenPrefix + len(m.Askers)*nodeIDSize
}

// Compile-time interface compliance checks.
var (
	_ Message = (*Propose)(nil)
	_ Message = (*Request)(nil)
	_ Message = (*Serve)(nil)
	_ Message = (*Ack)(nil)
	_ Message = (*Confirm)(nil)
	_ Message = (*ConfirmResp)(nil)
	_ Message = (*Blame)(nil)
	_ Message = (*ScoreReq)(nil)
	_ Message = (*ScoreResp)(nil)
	_ Message = (*Expel)(nil)
	_ Message = (*AuditReq)(nil)
	_ Message = (*AuditResp)(nil)
	_ Message = (*AuditPoll)(nil)
	_ Message = (*AuditPollResp)(nil)
)

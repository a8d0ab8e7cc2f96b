// Package phproto defines PeerHood's wire protocol: the commands exchanged
// on the daemon information port (device/service/neighbourhood fetching,
// fig 3.7) and on the library engine port (PH_NEW, PH_BRIDGE, PH_RECONNECT
// hellos and PH_OK/PH_FAIL acknowledgements, figs 2.5 and 4.3), with a
// compact binary framing.
//
// Frame layout: 1-byte command, 4-byte big-endian payload length, payload.
package phproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"peerhood/internal/device"
)

// Command identifies a frame type.
type Command uint8

// Wire commands. The PH_* names follow the thesis.
const (
	// CmdInfoRequest asks the daemon port for one information section.
	CmdInfoRequest Command = iota + 1
	// CmdDeviceInfo carries a device descriptor.
	CmdDeviceInfo
	// CmdServiceList carries the registered services of a device.
	CmdServiceList
	// CmdNeighborhood carries a device's routing table (DeviceStorage).
	CmdNeighborhood
	// CmdHelloNew opens an application connection to a service (PH_NEW).
	CmdHelloNew
	// CmdHelloBridge asks a bridge to extend the connection towards a
	// remote destination (PH_BRIDGE).
	CmdHelloBridge
	// CmdHelloReconnect re-attaches to an existing logical connection after
	// a handover (PH_RECONNECT).
	CmdHelloReconnect
	// CmdAck acknowledges a hello (PH_OK / PH_FAIL).
	CmdAck
	// CmdData carries one framed application payload; used by workloads
	// that need sequenced packages (task migration, §5.3).
	CmdData
	// CmdNeighborhoodSyncRequest opens a versioned neighbourhood fetch: the
	// fetcher states the responder epoch and generation it has already
	// merged, so the responder can answer with just the changes.
	CmdNeighborhoodSyncRequest
	// CmdNeighborhoodSync answers a sync request with either a DELTA
	// (changed entries + tombstones) or a FULL table, plus the responder's
	// table digest for end-to-end verification.
	CmdNeighborhoodSync
	// CmdDigest carries a storage digest (epoch, generation, entry count,
	// table hash) — the observability answer to InfoDigest.
	CmdDigest
	// CmdEventSubscribe opens a neighbourhood event stream on the library
	// engine port (EVENT_SUBSCRIBE): the subscriber states a type mask
	// and, after a PH_OK, receives EVENT frames until either side closes.
	CmdEventSubscribe
	// CmdEvent carries one neighbourhood event (EVENT) on a subscribed
	// stream.
	CmdEvent
	// CmdStatsRequest asks the daemon port for a snapshot of its telemetry
	// registry (STATS_REQUEST). Legacy daemons close the connection on it;
	// callers must treat that as "not supported".
	CmdStatsRequest
	// CmdStats answers a stats request with the flattened metric points.
	CmdStats
	// CmdTraceSubscribe opens a trace-span stream on the library engine
	// port (TRACE_SUBSCRIBE): after a PH_OK the subscriber receives
	// TRACE_SPAN frames until either side closes. Legacy daemons close the
	// connection on the subscribe.
	CmdTraceSubscribe
	// CmdTraceSpan carries one finished trace span on a subscribed stream.
	CmdTraceSpan
	// CmdHelloResume re-attaches to a continuity-enabled logical connection
	// after a handover (PH_RESUME): it proves the session identity (ConnID +
	// negotiated token) and states the client's receive position so the far
	// end can retransmit only the un-acked tail. Legacy engines close the
	// connection on it; callers fall back to PH_RECONNECT semantics.
	CmdHelloResume
	// CmdResumeAck answers a PH_RESUME with the responder's own receive
	// position (the resume offset the client retransmits from).
	CmdResumeAck
	// Values 21 and 22 are retired; never reassign them.
	_
	_
)

// String implements fmt.Stringer.
func (c Command) String() string {
	switch c {
	case CmdInfoRequest:
		return "INFO_REQUEST"
	case CmdDeviceInfo:
		return "DEVICE_INFO"
	case CmdServiceList:
		return "SERVICE_LIST"
	case CmdNeighborhood:
		return "NEIGHBORHOOD"
	case CmdHelloNew:
		return "PH_NEW"
	case CmdHelloBridge:
		return "PH_BRIDGE"
	case CmdHelloReconnect:
		return "PH_RECONNECT"
	case CmdAck:
		return "PH_ACK"
	case CmdData:
		return "PH_DATA"
	case CmdNeighborhoodSyncRequest:
		return "NEIGHBORHOOD_SYNC_REQUEST"
	case CmdNeighborhoodSync:
		return "NEIGHBORHOOD_SYNC"
	case CmdDigest:
		return "DIGEST"
	case CmdEventSubscribe:
		return "EVENT_SUBSCRIBE"
	case CmdEvent:
		return "EVENT"
	case CmdStatsRequest:
		return "STATS_REQUEST"
	case CmdStats:
		return "STATS"
	case CmdTraceSubscribe:
		return "TRACE_SUBSCRIBE"
	case CmdTraceSpan:
		return "TRACE_SPAN"
	case CmdHelloResume:
		return "PH_RESUME"
	case CmdResumeAck:
		return "PH_RESUME_ACK"
	default:
		return fmt.Sprintf("cmd(%d)", uint8(c))
	}
}

// Encoding limits. Frames beyond these are rejected before allocation, so a
// corrupt or hostile peer cannot force large allocations.
const (
	MaxFrameSize  = 1 << 20 // 1 MiB
	MaxStringLen  = 1 << 12
	MaxServices   = 256
	MaxEntries    = 4096
	MaxDataChunk  = MaxFrameSize - 64
	maxNameLength = MaxStringLen
)

// Codec errors.
var (
	// ErrFrameTooLarge reports a frame whose declared length exceeds
	// MaxFrameSize.
	ErrFrameTooLarge = errors.New("phproto: frame too large")
	// ErrMalformed reports a syntactically invalid payload.
	ErrMalformed = errors.New("phproto: malformed message")
	// ErrUnknownCommand reports an unrecognised command byte.
	ErrUnknownCommand = errors.New("phproto: unknown command")
)

// InfoKind selects which section an InfoRequest asks for. The previous
// PeerHood fetched device, prototype, service, and neighbourhood information
// over four short connections (fig 3.7); this implementation follows the
// thesis' own suggestion to unify them over one connection, as a sequence of
// requests.
type InfoKind uint8

// Information sections.
const (
	InfoDevice InfoKind = iota + 1
	InfoServices
	InfoNeighborhood
	// InfoDigest asks for the responder's storage digest (epoch,
	// generation, entry count, table hash). Legacy daemons close the
	// connection on it; callers must treat that as "not supported".
	InfoDigest
	// InfoDeviceEx asks for the device descriptor in its extended form,
	// which additionally advertises the responder's sibling interface
	// addresses (the cross-interface identity plane). Legacy daemons close
	// the connection on it; callers fall back to InfoDevice.
	InfoDeviceEx
)

// String implements fmt.Stringer.
func (k InfoKind) String() string {
	switch k {
	case InfoDevice:
		return "device"
	case InfoServices:
		return "services"
	case InfoNeighborhood:
		return "neighborhood"
	case InfoDigest:
		return "digest"
	case InfoDeviceEx:
		return "device-ex"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Message is one decoded protocol frame.
type Message interface {
	// Cmd returns the frame's command byte.
	Cmd() Command
	encodeTo(e *encoder)
	decodeFrom(d *decoder) error
}

// InfoRequest asks the daemon port for one information section.
type InfoRequest struct {
	Kind InfoKind
}

// Cmd implements Message.
func (*InfoRequest) Cmd() Command { return CmdInfoRequest }

func (m *InfoRequest) encodeTo(e *encoder) { e.u8(uint8(m.Kind)) }

func (m *InfoRequest) decodeFrom(d *decoder) error {
	m.Kind = InfoKind(d.u8())
	return d.err
}

// DeviceInfo carries one device descriptor. A descriptor with sibling
// interface addresses encodes in the extended form, which only InfoDeviceEx
// requesters receive — answers to plain InfoDevice are stripped by the
// responder so legacy fetchers keep decoding them.
type DeviceInfo struct {
	Info device.Info
}

// Cmd implements Message.
func (*DeviceInfo) Cmd() Command { return CmdDeviceInfo }

func (m *DeviceInfo) encodeTo(e *encoder) { e.infoAny(m.Info) }

func (m *DeviceInfo) decodeFrom(d *decoder) error {
	m.Info = d.infoAny()
	return d.err
}

// ServiceList carries the services registered on a device.
type ServiceList struct {
	Services []device.ServiceInfo
}

// Cmd implements Message.
func (*ServiceList) Cmd() Command { return CmdServiceList }

func (m *ServiceList) encodeTo(e *encoder) { e.services(m.Services) }

func (m *ServiceList) decodeFrom(d *decoder) error {
	m.Services = d.services()
	return d.err
}

// NeighborEntry is one row of a transmitted DeviceStorage: the remote
// device's descriptor plus the routing metadata the thesis adds in ch. 3 —
// jump count, bridge (next hop), and the route's link-quality aggregates.
type NeighborEntry struct {
	Info device.Info
	// Jumps is the hop count from the sender to Info's device; direct
	// neighbours have 0 (§3.3).
	Jumps uint8
	// Bridge is the sender's next hop towards the device; zero for direct
	// neighbours.
	Bridge device.Addr
	// QualitySum is the sum of per-hop link qualities along the sender's
	// route (the §3.4.1 addition rule).
	QualitySum uint32
	// QualityMin is the weakest per-hop link quality along the route (used
	// for the 230-threshold acceptance rule, fig 3.9).
	QualityMin uint8
}

// Neighborhood carries a device's routing table. It is the legacy full
// exchange, fetched by peers that may predate the identity plane, so it
// always encodes in the legacy entry form: sibling advertisements are
// stripped at encode time (identity-capable peers use the versioned sync
// exchange instead, which negotiates the extended form).
type Neighborhood struct {
	Entries []NeighborEntry
}

// Cmd implements Message.
func (*Neighborhood) Cmd() Command { return CmdNeighborhood }

func (m *Neighborhood) encodeTo(e *encoder) { e.neighborEntries(StripSiblings(m.Entries)) }
func (m *Neighborhood) decodeFrom(d *decoder) error {
	m.Entries = d.neighborEntries()
	return d.err
}

// Hello continuity flags: the negotiated-extension bits a continuity-capable
// caller appends to its hello. A legacy decoder rejects the trailing bytes
// and hangs up, which the caller treats as "not supported" and retries
// flagless — the same fallback discipline as every other extension here.
const (
	// HelloFlagContinuity asks the far end to enable the session-continuity
	// window (sequence-numbered framing + resume) on this connection.
	HelloFlagContinuity uint8 = 1 << 0
	// HelloFlagResume marks a bridged chain's final hop as a PH_RESUME
	// re-attachment rather than a PH_RECONNECT.
	HelloFlagResume uint8 = 1 << 1
)

// HelloNew opens an application connection to a service. The optional
// client descriptor implements the thesis' §5.3 "method 2": sending the
// client's identity up front so a server can reconnect to return results
// after a disconnection.
type HelloNew struct {
	ServicePort uint16
	ServiceName string
	ConnID      uint64
	// HasClient marks Client as meaningful.
	HasClient bool
	Client    device.Info
	// Flags carries the continuity extension bits; zero encodes in the
	// legacy form so flagless hellos stay byte-identical on the wire.
	Flags uint8
	// Token is the session-continuity secret proving later PH_RESUME calls
	// come from this connection's originator. Meaningful when Flags has
	// HelloFlagContinuity.
	Token uint64
}

// Cmd implements Message.
func (*HelloNew) Cmd() Command { return CmdHelloNew }

func (m *HelloNew) encodeTo(e *encoder) {
	e.u16(m.ServicePort)
	e.str(m.ServiceName)
	e.u64(m.ConnID)
	if m.HasClient {
		e.u8(1)
		e.info(m.Client)
	} else {
		e.u8(0)
	}
	if m.Flags != 0 {
		e.u8(m.Flags)
		e.u64(m.Token)
	}
}

func (m *HelloNew) decodeFrom(d *decoder) error {
	m.ServicePort = d.u16()
	m.ServiceName = d.str()
	m.ConnID = d.u64()
	if d.u8() == 1 {
		m.HasClient = true
		m.Client = d.info()
	}
	if d.more() {
		m.Flags = d.u8()
		m.Token = d.u64()
	}
	return d.err
}

// HelloBridge asks a bridge node to extend the connection to Dest's
// service, possibly through further bridges (fig 4.3). TTL bounds the chain
// length so routing loops cannot relay forever.
type HelloBridge struct {
	Dest        device.Addr
	ServiceName string
	ServicePort uint16
	ConnID      uint64
	TTL         uint8
	// Reconnect marks the chain as a routing-handover re-attachment: the
	// final hop delivers a PH_RECONNECT instead of a PH_NEW, so the far
	// end substitutes the transport under connection ConnID (§5.2.1).
	Reconnect bool
	// HasClient/Client mirror HelloNew and are forwarded hop by hop.
	HasClient bool
	Client    device.Info
	// Flags/Token/RecvSeq carry the continuity extension hop by hop: with
	// HelloFlagContinuity the final PH_NEW negotiates the window; with
	// HelloFlagResume the final hop delivers a PH_RESUME (Token proves the
	// identity, RecvSeq is the originator's receive position) and the
	// endpoint's PH_RESUME_ACK propagates back through the chain. Zero
	// flags encode in the legacy form.
	Flags   uint8
	Token   uint64
	RecvSeq uint32
}

// Cmd implements Message.
func (*HelloBridge) Cmd() Command { return CmdHelloBridge }

func (m *HelloBridge) encodeTo(e *encoder) {
	e.addr(m.Dest)
	e.str(m.ServiceName)
	e.u16(m.ServicePort)
	e.u64(m.ConnID)
	e.u8(m.TTL)
	if m.Reconnect {
		e.u8(1)
	} else {
		e.u8(0)
	}
	if m.HasClient {
		e.u8(1)
		e.info(m.Client)
	} else {
		e.u8(0)
	}
	if m.Flags != 0 {
		e.u8(m.Flags)
		e.u64(m.Token)
		e.u32(m.RecvSeq)
	}
}

func (m *HelloBridge) decodeFrom(d *decoder) error {
	m.Dest = d.addr()
	m.ServiceName = d.str()
	m.ServicePort = d.u16()
	m.ConnID = d.u64()
	m.TTL = d.u8()
	m.Reconnect = d.u8() == 1
	if d.u8() == 1 {
		m.HasClient = true
		m.Client = d.info()
	}
	if d.more() {
		m.Flags = d.u8()
		m.Token = d.u64()
		m.RecvSeq = d.u32()
	}
	return d.err
}

// HelloReconnect re-attaches to the logical connection ConnID after a
// routing handover; the engine matches it against monitored connections and
// substitutes the transport underneath the application (§5.2.1).
type HelloReconnect struct {
	ConnID uint64
}

// Cmd implements Message.
func (*HelloReconnect) Cmd() Command { return CmdHelloReconnect }

func (m *HelloReconnect) encodeTo(e *encoder) { e.u64(m.ConnID) }

func (m *HelloReconnect) decodeFrom(d *decoder) error {
	m.ConnID = d.u64()
	return d.err
}

// HelloResume re-attaches to a continuity-enabled logical connection after
// a handover. Unlike PH_RECONNECT it carries the session token negotiated at
// PH_NEW time and the caller's cumulative receive position, so both ends can
// retransmit exactly the un-acked tail over the new transport instead of
// abandoning it.
type HelloResume struct {
	ConnID uint64
	// Token must match the token the originator sent in its PH_NEW.
	Token uint64
	// RecvSeq is the caller's cumulative receive position: the highest
	// in-order frame sequence it has delivered.
	RecvSeq uint32
}

// Cmd implements Message.
func (*HelloResume) Cmd() Command { return CmdHelloResume }

func (m *HelloResume) encodeTo(e *encoder) {
	e.u64(m.ConnID)
	e.u64(m.Token)
	e.u32(m.RecvSeq)
}

func (m *HelloResume) decodeFrom(d *decoder) error {
	m.ConnID = d.u64()
	m.Token = d.u64()
	m.RecvSeq = d.u32()
	return d.err
}

// ResumeAck answers a PH_RESUME: on OK it carries the responder's own
// cumulative receive position, the offset from which the caller replays its
// un-acked frames. In a bridged chain each hop copies the endpoint's RecvSeq
// back so the originator sees the true far-end position.
type ResumeAck struct {
	OK     bool
	Reason string
	// RecvSeq is the responder's receive position (meaningful when OK).
	RecvSeq uint32
}

// Cmd implements Message.
func (*ResumeAck) Cmd() Command { return CmdResumeAck }

func (m *ResumeAck) encodeTo(e *encoder) {
	if m.OK {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.str(m.Reason)
	e.u32(m.RecvSeq)
}

func (m *ResumeAck) decodeFrom(d *decoder) error {
	m.OK = d.u8() == 1
	m.Reason = d.str()
	m.RecvSeq = d.u32()
	return d.err
}

// Ack acknowledges a hello: PH_OK (OK=true) or PH_FAIL with a reason. In a
// bridged chain the ack propagates back so the originator learns whether
// the whole chain came up (§4.1).
type Ack struct {
	OK     bool
	Reason string
}

// Cmd implements Message.
func (*Ack) Cmd() Command { return CmdAck }

func (m *Ack) encodeTo(e *encoder) {
	if m.OK {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.str(m.Reason)
}

func (m *Ack) decodeFrom(d *decoder) error {
	m.OK = d.u8() == 1
	m.Reason = d.str()
	return d.err
}

// Data carries one sequenced application payload.
type Data struct {
	Seq     uint32
	Payload []byte
}

// Cmd implements Message.
func (*Data) Cmd() Command { return CmdData }

func (m *Data) encodeTo(e *encoder) {
	e.u32(m.Seq)
	e.bytes(m.Payload)
}

func (m *Data) decodeFrom(d *decoder) error {
	m.Seq = d.u32()
	m.Payload = d.bytesLimited(MaxDataChunk)
	return d.err
}

// newMessage returns an empty message value for cmd.
func newMessage(cmd Command) (Message, error) {
	switch cmd {
	case CmdInfoRequest:
		return &InfoRequest{}, nil
	case CmdDeviceInfo:
		return &DeviceInfo{}, nil
	case CmdServiceList:
		return &ServiceList{}, nil
	case CmdNeighborhood:
		return &Neighborhood{}, nil
	case CmdHelloNew:
		return &HelloNew{}, nil
	case CmdHelloBridge:
		return &HelloBridge{}, nil
	case CmdHelloReconnect:
		return &HelloReconnect{}, nil
	case CmdAck:
		return &Ack{}, nil
	case CmdData:
		return &Data{}, nil
	case CmdNeighborhoodSyncRequest:
		return &NeighborhoodSyncRequest{}, nil
	case CmdNeighborhoodSync:
		return &NeighborhoodSync{}, nil
	case CmdDigest:
		return &DigestInfo{}, nil
	case CmdEventSubscribe:
		return &EventSubscribe{}, nil
	case CmdEvent:
		return &EventNotice{}, nil
	case CmdStatsRequest:
		return &StatsRequest{}, nil
	case CmdStats:
		return &Stats{}, nil
	case CmdTraceSubscribe:
		return &TraceSubscribe{}, nil
	case CmdTraceSpan:
		return &TraceSpan{}, nil
	case CmdHelloResume:
		return &HelloResume{}, nil
	case CmdResumeAck:
		return &ResumeAck{}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownCommand, uint8(cmd))
	}
}

// Write encodes m as one frame onto w, using a pooled Encoder so the
// steady-state cost is the encode itself, not buffer churn.
func Write(w io.Writer, m Message) error {
	enc := getEncoder()
	err := enc.WriteMsg(w, m)
	putEncoder(enc)
	return err
}

// Read decodes the next frame from r. The payload is read into a pooled
// buffer; decoded messages never alias it (strings and byte fields are
// copied out), so the buffer is recycled on return.
func Read(r io.Reader) (Message, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	cmd := Command(hdr[0])
	size := binary.BigEndian.Uint32(hdr[1:5])
	if size > MaxFrameSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, size)
	}
	bp := getReadBuf(int(size))
	defer putReadBuf(bp)
	payload := (*bp)[:size]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	m, err := newMessage(cmd)
	if err != nil {
		return nil, err
	}
	d := &decoder{buf: payload}
	if err := m.decodeFrom(d); err != nil {
		return nil, err
	}
	if len(d.buf) != d.off {
		return nil, fmt.Errorf("%w: %d trailing bytes after %v", ErrMalformed, len(d.buf)-d.off, cmd)
	}
	return m, nil
}

// ReadExpect reads the next frame and requires it to be of type T.
func ReadExpect[T Message](r io.Reader) (T, error) {
	var zero T
	m, err := Read(r)
	if err != nil {
		return zero, err
	}
	t, ok := m.(T)
	if !ok {
		return zero, fmt.Errorf("%w: got %v", ErrMalformed, m.Cmd())
	}
	return t, nil
}

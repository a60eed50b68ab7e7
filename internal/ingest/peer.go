package ingest

// Peer frames extend the ingest framing to the cluster control plane:
// the node-role messages a fleet process exchanges with the cluster
// coordinator (JOIN/LEASE/STATE and their replies) and the REDIRECT
// frame a node answers a client with when a stream's placement says
// another node owns it. They ride the exact same [type|len|body|CRC]
// framing as the data plane, so one decoder, one fuzz target and one
// fault-injection layer cover both planes.
//
// Direction convention is unchanged: node-to-coordinator types have the
// high bit clear, coordinator-to-node (and server-to-client) types have
// it set.

import (
	"encoding/binary"
	"fmt"
)

// Cluster control-plane frame types.
const (
	// FrameJoin introduces a node to the coordinator: its ID, advertised
	// ingest address and placement weight. Must be the first frame on a
	// control connection.
	FrameJoin byte = 0x10
	// FrameLease is a heartbeat: it renews the node's lease and carries
	// an aggregate stats sample for the coordinator's fan-in view.
	FrameLease byte = 0x11
	// FrameState ships one stream's portable chain state to the
	// coordinator — the periodic fan-in that makes lease-expiry failover
	// possible, and the final ship at the end of a drain.
	FrameState byte = 0x12

	// FrameJoinOK admits a node: its lease epoch, the lease TTL and the
	// current placement ring.
	FrameJoinOK byte = 0x90
	// FrameLeaseOK renews a lease and carries the current ring plus any
	// pending command (drain).
	FrameLeaseOK byte = 0x91
	// FrameInstall pushes one stream's portable chain state down to the
	// node that now owns it (same body layout as FrameState).
	FrameInstall byte = 0x92
	// FrameRedirect answers a client HELLO for a stream another node
	// owns: the client should reconnect to the carried address.
	FrameRedirect byte = 0x93
)

// Member is one placement-ring entry: a node's identity, advertised
// ingest address, relative placement weight and lease epoch.
type Member struct {
	ID     string
	Addr   string
	Weight int
	Epoch  uint64
}

// RingUpdate is the coordinator's placement view pushed to nodes with
// every JOIN_OK and LEASE_OK: rings are a handful of members, so
// shipping the whole thing beats delta bookkeeping.
type RingUpdate struct {
	Version uint64
	Members []Member
}

// Join is the node-side handshake.
type Join struct {
	Version byte
	// Weight scales the node's share of the ring (<=0 means 1).
	Weight int
	NodeID string
	Addr   string
}

// AppendJoin appends a JOIN frame.
func AppendJoin(dst []byte, j Join) []byte {
	body := make([]byte, 0, 8+len(j.NodeID)+len(j.Addr))
	body = append(body, j.Version)
	body = binary.BigEndian.AppendUint16(body, uint16(max(j.Weight, 1)))
	body = appendString(body, j.NodeID)
	body = appendString(body, j.Addr)
	return AppendFrame(dst, FrameJoin, body)
}

// ParseJoin decodes a JOIN body.
func ParseJoin(body []byte) (Join, error) {
	var j Join
	if len(body) < 5 {
		return j, fmt.Errorf("%w: join body %d bytes", ErrBadFrame, len(body))
	}
	j.Version = body[0]
	if j.Version != ProtoVersion {
		return j, fmt.Errorf("%w: %d", ErrBadVersion, j.Version)
	}
	j.Weight = int(binary.BigEndian.Uint16(body[1:3]))
	rest := body[3:]
	var err error
	if j.NodeID, rest, err = parseString(rest); err != nil {
		return j, fmt.Errorf("%w: join node ID", ErrBadFrame)
	}
	if j.Addr, rest, err = parseString(rest); err != nil {
		return j, fmt.Errorf("%w: join addr", ErrBadFrame)
	}
	if len(rest) != 0 {
		return j, fmt.Errorf("%w: %d trailing join bytes", ErrBadFrame, len(rest))
	}
	if j.NodeID == "" || j.Addr == "" {
		return j, fmt.Errorf("%w: empty join node ID or addr", ErrBadFrame)
	}
	if j.Weight < 1 {
		return j, fmt.Errorf("%w: join weight %d", ErrBadFrame, j.Weight)
	}
	return j, nil
}

// JoinOK is the coordinator's admission reply.
type JoinOK struct {
	// Epoch fences the node's lease: it increments every time the node
	// (re)joins, so state shipped under a stale epoch is refused.
	Epoch uint64
	// LeaseMillis is the lease TTL the node must renew within.
	LeaseMillis uint32
	Ring        RingUpdate
}

// AppendJoinOK appends a JOIN_OK frame.
func AppendJoinOK(dst []byte, ok JoinOK) []byte {
	body := make([]byte, 0, 16+24*len(ok.Ring.Members))
	body = binary.BigEndian.AppendUint64(body, ok.Epoch)
	body = binary.BigEndian.AppendUint32(body, ok.LeaseMillis)
	body = appendRing(body, ok.Ring)
	return AppendFrame(dst, FrameJoinOK, body)
}

// ParseJoinOK decodes a JOIN_OK body.
func ParseJoinOK(body []byte) (JoinOK, error) {
	if len(body) < 12 {
		return JoinOK{}, fmt.Errorf("%w: join-ok body %d bytes", ErrBadFrame, len(body))
	}
	ok := JoinOK{
		Epoch:       binary.BigEndian.Uint64(body[0:8]),
		LeaseMillis: binary.BigEndian.Uint32(body[8:12]),
	}
	ring, rest, err := parseRing(body[12:])
	if err != nil {
		return JoinOK{}, err
	}
	if len(rest) != 0 {
		return JoinOK{}, fmt.Errorf("%w: %d trailing join-ok bytes", ErrBadFrame, len(rest))
	}
	ok.Ring = ring
	return ok, nil
}

// NodeStats is the compact per-node aggregate riding every heartbeat —
// the coordinator's fleet-wide stats fan-in.
type NodeStats struct {
	Streams    uint64 // streams ever admitted by the node's ingest server
	Accepted   uint64 // samples admitted into stream rings
	Shed       uint64 // samples dropped by inflight windows
	Verdicts   uint64 // engine verdict-timeline length
	Attributed uint64 // verdicts paired with a client sample
	Held       uint64 // hold-last repair verdicts
}

// Lease is a heartbeat.
type Lease struct {
	// Epoch must match the node's JOIN_OK epoch; a mismatch means the
	// coordinator has moved on and the node must rejoin.
	Epoch uint64
	// RingVersion acknowledges the newest ring the node has applied.
	RingVersion uint64
	// Draining reports that the node is finishing streams after a drain
	// command (the lease must stay alive while it does).
	Draining bool
	Stats    NodeStats
}

// AppendLease appends a LEASE frame.
func AppendLease(dst []byte, l Lease) []byte {
	body := make([]byte, 0, 65)
	body = binary.BigEndian.AppendUint64(body, l.Epoch)
	body = binary.BigEndian.AppendUint64(body, l.RingVersion)
	var flags byte
	if l.Draining {
		flags |= 1
	}
	body = append(body, flags)
	for _, v := range [...]uint64{l.Stats.Streams, l.Stats.Accepted, l.Stats.Shed,
		l.Stats.Verdicts, l.Stats.Attributed, l.Stats.Held} {
		body = binary.BigEndian.AppendUint64(body, v)
	}
	return AppendFrame(dst, FrameLease, body)
}

// ParseLease decodes a LEASE body.
func ParseLease(body []byte) (Lease, error) {
	if len(body) != 65 {
		return Lease{}, fmt.Errorf("%w: lease body %d bytes", ErrBadFrame, len(body))
	}
	l := Lease{
		Epoch:       binary.BigEndian.Uint64(body[0:8]),
		RingVersion: binary.BigEndian.Uint64(body[8:16]),
		Draining:    body[16]&1 != 0,
	}
	s := body[17:]
	l.Stats = NodeStats{
		Streams:    binary.BigEndian.Uint64(s[0:8]),
		Accepted:   binary.BigEndian.Uint64(s[8:16]),
		Shed:       binary.BigEndian.Uint64(s[16:24]),
		Verdicts:   binary.BigEndian.Uint64(s[24:32]),
		Attributed: binary.BigEndian.Uint64(s[32:40]),
		Held:       binary.BigEndian.Uint64(s[40:48]),
	}
	return l, nil
}

// LeaseOK renews a lease.
type LeaseOK struct {
	Epoch uint64
	// Drain commands the node to drain: refuse new streams, finish
	// buffered work, ship final states and leave.
	Drain bool
	Ring  RingUpdate
}

// AppendLeaseOK appends a LEASE_OK frame.
func AppendLeaseOK(dst []byte, ok LeaseOK) []byte {
	body := make([]byte, 0, 16+24*len(ok.Ring.Members))
	body = binary.BigEndian.AppendUint64(body, ok.Epoch)
	var flags byte
	if ok.Drain {
		flags |= 1
	}
	body = append(body, flags)
	body = appendRing(body, ok.Ring)
	return AppendFrame(dst, FrameLeaseOK, body)
}

// ParseLeaseOK decodes a LEASE_OK body.
func ParseLeaseOK(body []byte) (LeaseOK, error) {
	if len(body) < 9 {
		return LeaseOK{}, fmt.Errorf("%w: lease-ok body %d bytes", ErrBadFrame, len(body))
	}
	ok := LeaseOK{
		Epoch: binary.BigEndian.Uint64(body[0:8]),
		Drain: body[8]&1 != 0,
	}
	ring, rest, err := parseRing(body[9:])
	if err != nil {
		return LeaseOK{}, err
	}
	if len(rest) != 0 {
		return LeaseOK{}, fmt.Errorf("%w: %d trailing lease-ok bytes", ErrBadFrame, len(rest))
	}
	ok.Ring = ring
	return ok, nil
}

// StreamState is one stream's portable chain state: the payload of both
// STATE (node ships to coordinator) and INSTALL (coordinator pushes to
// the new owner). Blob is an opaque serialized chain state (the cluster
// layer gob-encodes core.ChainState); Interval is carried alongside so
// staleness ordering never requires decoding the blob.
type StreamState struct {
	Key      string
	Interval uint32
	Blob     []byte
}

// AppendStreamState appends a STATE or INSTALL frame (typ selects).
func AppendStreamState(dst []byte, typ byte, st StreamState) []byte {
	body := make([]byte, 0, 6+len(st.Key)+len(st.Blob))
	body = binary.BigEndian.AppendUint32(body, st.Interval)
	body = appendString(body, st.Key)
	body = append(body, st.Blob...)
	return AppendFrame(dst, typ, body)
}

// ParseStreamState decodes a STATE/INSTALL body. The returned Blob
// aliases body.
func ParseStreamState(body []byte) (StreamState, error) {
	if len(body) < 5 {
		return StreamState{}, fmt.Errorf("%w: state body %d bytes", ErrBadFrame, len(body))
	}
	st := StreamState{Interval: binary.BigEndian.Uint32(body[0:4])}
	key, rest, err := parseString(body[4:])
	if err != nil {
		return StreamState{}, fmt.Errorf("%w: state key", ErrBadFrame)
	}
	if key == "" {
		return StreamState{}, fmt.Errorf("%w: empty state key", ErrBadFrame)
	}
	st.Key, st.Blob = key, rest
	return st, nil
}

// Redirect tells a client which node owns its stream.
type Redirect struct {
	Addr   string
	Reason string
}

// AppendRedirect appends a REDIRECT frame.
func AppendRedirect(dst []byte, r Redirect) []byte {
	body := appendString(nil, r.Addr)
	body = appendString(body, r.Reason)
	return AppendFrame(dst, FrameRedirect, body)
}

// ParseRedirect decodes a REDIRECT body.
func ParseRedirect(body []byte) (Redirect, error) {
	addr, rest, err := parseString(body)
	if err != nil {
		return Redirect{}, fmt.Errorf("%w: redirect addr", ErrBadFrame)
	}
	reason, rest, err := parseString(rest)
	if err != nil || len(rest) != 0 {
		return Redirect{}, fmt.Errorf("%w: redirect reason", ErrBadFrame)
	}
	if addr == "" {
		return Redirect{}, fmt.Errorf("%w: empty redirect addr", ErrBadFrame)
	}
	return Redirect{Addr: addr, Reason: reason}, nil
}

// appendRing appends a RingUpdate: version, member count, members.
func appendRing(dst []byte, r RingUpdate) []byte {
	dst = binary.BigEndian.AppendUint64(dst, r.Version)
	dst = append(dst, byte(len(r.Members)))
	for _, m := range r.Members {
		dst = binary.BigEndian.AppendUint64(dst, m.Epoch)
		dst = binary.BigEndian.AppendUint16(dst, uint16(max(m.Weight, 1)))
		dst = appendString(dst, m.ID)
		dst = appendString(dst, m.Addr)
	}
	return dst
}

// parseRing decodes a RingUpdate, returning the remaining bytes.
func parseRing(b []byte) (RingUpdate, []byte, error) {
	if len(b) < 9 {
		return RingUpdate{}, b, fmt.Errorf("%w: ring of %d bytes", ErrBadFrame, len(b))
	}
	r := RingUpdate{Version: binary.BigEndian.Uint64(b[0:8])}
	n := int(b[8])
	rest := b[9:]
	for i := 0; i < n; i++ {
		if len(rest) < 10 {
			return RingUpdate{}, rest, fmt.Errorf("%w: ring member %d truncated", ErrBadFrame, i)
		}
		m := Member{
			Epoch:  binary.BigEndian.Uint64(rest[0:8]),
			Weight: int(binary.BigEndian.Uint16(rest[8:10])),
		}
		var err error
		if m.ID, rest, err = parseString(rest[10:]); err != nil {
			return RingUpdate{}, rest, fmt.Errorf("%w: ring member %d ID", ErrBadFrame, i)
		}
		if m.Addr, rest, err = parseString(rest); err != nil {
			return RingUpdate{}, rest, fmt.Errorf("%w: ring member %d addr", ErrBadFrame, i)
		}
		if m.ID == "" {
			return RingUpdate{}, rest, fmt.Errorf("%w: ring member %d empty ID", ErrBadFrame, i)
		}
		r.Members = append(r.Members, m)
	}
	return r, rest, nil
}

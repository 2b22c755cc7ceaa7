package dist

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// The wire protocol between the coordinator and a worker process: JSON
// messages framed by a 4-byte big-endian length prefix and a 4-byte
// big-endian IEEE CRC32 of the body, exchanged over the worker's stdin
// (coordinator → worker) and stdout (worker → coordinator). Framing keeps
// the stream self-synchronizing — a crashed worker can at worst truncate
// the final frame, which the reader surfaces as an error instead of a
// half-parsed message — and the checksum turns a corrupted-in-flight frame
// into a typed *FrameCorruptError rather than a JSON parse guess (or,
// worse, a frame that parses to the wrong values).

// MaxFrame bounds a single frame. Result frames carry one trial's metrics
// and hello frames one spec file; both are far below this.
const MaxFrame = 16 << 20

// frameHeader is the per-frame overhead: length prefix plus body CRC32.
const frameHeader = 8

// ProtoVersion is the version of this frame protocol, negotiated during the
// socket handshake. Bump it whenever a frame's meaning changes
// incompatibly (v3 added the CRC32 body checksum to every frame); the
// stdin/stdout pipe transport needs no negotiation because the coordinator
// fork/execs its own binary.
const ProtoVersion = 3

// Kind discriminates protocol messages.
type Kind string

// Coordinator → worker kinds.
const (
	// KindChallenge opens the socket handshake: a fresh nonce plus the
	// coordinator's protocol and code versions.
	KindChallenge Kind = "challenge"
	// KindReject ends a failed socket handshake with a typed reason.
	KindReject Kind = "reject"
	// KindHello is the first post-handshake frame (the first frame outright
	// on the pipe transport): the spec, execution options, and the worker's
	// incarnation number.
	KindHello Kind = "hello"
	// KindLease grants a slot range to the worker.
	KindLease Kind = "lease"
	// KindShutdown asks the worker to exit cleanly.
	KindShutdown Kind = "shutdown"
)

// Worker → coordinator kinds.
const (
	// KindAuth answers a challenge: the HMAC over the nonce plus the
	// worker's own versions.
	KindAuth Kind = "auth"
	// KindReady acknowledges the hello: the spec compiled and the worker is
	// accepting leases.
	KindReady Kind = "ready"
	// KindResult reports one settled trial of the current lease.
	KindResult Kind = "result"
	// KindLeaseDone reports that every non-skipped slot of a lease was
	// executed and its results streamed.
	KindLeaseDone Kind = "leaseDone"
	// KindHeartbeat is the liveness signal workers emit on a timer.
	KindHeartbeat Kind = "heartbeat"
)

// Hello carries everything a worker needs to reconstruct the coordinator's
// exact trial list: the spec bytes, the quick flag and the resolved root
// seed.
type Hello struct {
	// Worker is the incarnation number of this worker process, unique
	// across respawns; it keys the deterministic chaos fault plan.
	Worker int `json:"worker"`
	// Spec is the JSON-encoded spec.File (registry workloads only).
	Spec json.RawMessage `json:"spec"`
	// Quick applies the spec's reduced-size overlays, exactly as compiled
	// by the coordinator.
	Quick bool `json:"quick,omitempty"`
	// Root is the resolved root seed (never 0).
	Root uint64 `json:"root"`
	// HeartbeatMS is the interval between worker heartbeat frames.
	HeartbeatMS int `json:"heartbeatMS,omitempty"`
	// Chaos is the fault-injection schedule (zero value = none).
	Chaos ChaosSpec `json:"chaos,omitempty"`
}

// Challenge is the coordinator's opening handshake frame on a socket
// transport: a single-use random nonce the worker must MAC with the shared
// token, plus the coordinator's versions so an out-of-date worker can print
// an actionable error even before the coordinator rejects it.
type Challenge struct {
	// Nonce is hex-encoded random bytes, fresh per connection; the auth
	// response must MAC exactly this value, which is what defeats replayed
	// hellos.
	Nonce string `json:"nonce"`
	// Proto / Code are the coordinator's ProtoVersion and spec.CodeVersion.
	Proto int    `json:"proto"`
	Code  string `json:"code"`
}

// Auth is the worker's handshake response: the challenge nonce echoed back,
// the HMAC-SHA256 of that nonce under the shared token, and the worker's
// own versions for negotiation.
type Auth struct {
	Nonce string `json:"nonce"`
	// MAC is hex(HMAC-SHA256(token, nonce)).
	MAC   string `json:"mac"`
	Proto int    `json:"proto"`
	Code  string `json:"code"`
}

// Reject is a typed handshake rejection; the connection closes after it.
type Reject struct {
	Code    RejectCode `json:"code"`
	Message string     `json:"message"`
}

// RejectCode classifies why a handshake was refused.
type RejectCode string

const (
	// RejectBadToken: the HMAC does not verify under the coordinator's
	// token.
	RejectBadToken RejectCode = "badToken"
	// RejectReplay: the auth echoed a nonce other than the one this
	// connection was issued — a replayed hello from an earlier session.
	RejectReplay RejectCode = "replayedHello"
	// RejectProtoVersion: the worker speaks a different frame protocol.
	RejectProtoVersion RejectCode = "protoVersion"
	// RejectCodeVersion: the worker was built from different code; its
	// trial expansion could silently diverge, so it is refused up front
	// (the seed-echo skew check remains the runtime backstop).
	RejectCodeVersion RejectCode = "codeVersion"
)

// RejectedError is the typed error a worker surfaces when the coordinator
// refuses its handshake. It is terminal: reconnecting cannot help until the
// operator fixes the token or deploys matching binaries.
type RejectedError struct {
	Code    RejectCode
	Message string
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("dist: handshake rejected (%s): %s", e.Code, e.Message)
}

// Lease is one granted unit of work: the slots in [Start, End) minus Skip.
type Lease struct {
	ID    int `json:"id"`
	Start int `json:"start"`
	End   int `json:"end"`
	// Skip lists slots within the range that are already completed
	// elsewhere (a re-lease after a revocation or a checkpoint resume
	// carries them).
	Skip []int `json:"skip,omitempty"`
}

// Message is the frame envelope. Kind selects which fields are meaningful.
type Message struct {
	Kind      Kind       `json:"kind"`
	Hello     *Hello     `json:"hello,omitempty"`
	Lease     *Lease     `json:"lease,omitempty"`
	Challenge *Challenge `json:"challenge,omitempty"`
	Auth      *Auth      `json:"auth,omitempty"`
	Reject    *Reject    `json:"reject,omitempty"`

	// Result / leaseDone fields.
	LeaseID int `json:"leaseID,omitempty"`
	// Slot is the trial's global index in the canonical order.
	Slot int `json:"slot,omitempty"`
	// Seed echoes the trial's derived seed so the coordinator can verify
	// both processes expanded the identical trial list.
	Seed     uint64             `json:"seed,omitempty"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
	TrialErr string             `json:"trialErr,omitempty"`
}

// FrameCorruptError reports a frame whose body failed its CRC32 check: the
// bytes that arrived are not the bytes the peer framed. It is a transport
// integrity failure, not a protocol disagreement — the receiver should drop
// the connection (the stream offers no way to resynchronize past a lying
// body) and let the usual revoke/respawn machinery take over.
type FrameCorruptError struct {
	Stored   uint32 // checksum carried by the frame
	Computed uint32 // checksum of the body as received
}

func (e *FrameCorruptError) Error() string {
	return fmt.Sprintf("dist: frame body failed CRC32 (stored %08x, computed %08x): corrupted in flight", e.Stored, e.Computed)
}

// FrameWriter writes length-prefixed, CRC32-framed messages. It is safe for
// concurrent use — a worker's heartbeat timer and its result stream share
// one writer — and flushes after every frame so a subsequent crash cannot
// swallow an emitted result.
type FrameWriter struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	corrupt bool
}

// NewFrameWriter wraps w for frame output.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{bw: bufio.NewWriter(w)}
}

// CorruptNext makes the next Write emit a frame whose body is flipped after
// the checksum was computed, so the receiver sees a CRC failure. Chaos-only:
// this is how `-chaos corrupt=P` simulates in-flight damage without a real
// flaky link.
func (fw *FrameWriter) CorruptNext() {
	fw.mu.Lock()
	fw.corrupt = true
	fw.mu.Unlock()
}

// Write marshals, frames, and flushes one message.
func (fw *FrameWriter) Write(m *Message) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("dist: marshal %s frame: %w", m.Kind, err)
	}
	if len(body) > MaxFrame {
		return fmt.Errorf("dist: %s frame of %d bytes exceeds the %d-byte limit", m.Kind, len(body), MaxFrame)
	}
	var prefix [frameHeader]byte
	binary.BigEndian.PutUint32(prefix[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(prefix[4:8], crc32.ChecksumIEEE(body))
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.corrupt && len(body) > 0 {
		fw.corrupt = false
		body = append([]byte(nil), body...)
		body[0] ^= 0xff
	}
	if _, err := fw.bw.Write(prefix[:]); err != nil {
		return err
	}
	if _, err := fw.bw.Write(body); err != nil {
		return err
	}
	return fw.bw.Flush()
}

// FrameReader reads length-prefixed frames. It is not safe for concurrent
// use; each peer dedicates one goroutine to its read side.
type FrameReader struct {
	br *bufio.Reader
}

// NewFrameReader wraps r for frame input.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReader(r)}
}

// Read returns the next message. io.EOF (clean close between frames) passes
// through unchanged; a stream truncated mid-frame reports ErrUnexpectedEOF,
// and a body whose CRC32 does not verify reports a *FrameCorruptError.
func (fr *FrameReader) Read() (*Message, error) {
	var prefix [frameHeader]byte
	if _, err := io.ReadFull(fr.br, prefix[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("dist: stream truncated mid-prefix: %w", err)
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(prefix[0:4])
	if n > MaxFrame {
		return nil, fmt.Errorf("dist: incoming frame of %d bytes exceeds the %d-byte limit", n, MaxFrame)
	}
	want := binary.BigEndian.Uint32(prefix[4:8])
	body := make([]byte, n)
	if _, err := io.ReadFull(fr.br, body); err != nil {
		return nil, fmt.Errorf("dist: stream truncated mid-frame: %w", err)
	}
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, &FrameCorruptError{Stored: want, Computed: got}
	}
	m := new(Message)
	if err := json.Unmarshal(body, m); err != nil {
		return nil, fmt.Errorf("dist: bad frame: %w", err)
	}
	if m.Kind == "" {
		return nil, fmt.Errorf("dist: frame without a kind")
	}
	return m, nil
}

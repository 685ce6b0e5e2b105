package transport

// The binary wire format (protocol version 2). It replaces gob on the
// hot path while the gob stream stays decodable for old peers:
//
// Handshake. A binary client opens with the 5-byte hello
//
//	[0x00 'G' 'R' 'M' <version>]
//
// and the server answers with the same magic and the version it accepts
// (the minimum of the client's proposal and its own maximum). A
// proposal below MinVersion is refused: the server closes the
// connection without an answer. The client checks the accepted version
// in turn, so neither side decodes a layout it does not speak. The lead
// byte 0x00 is the discriminator: a gob stream's first byte is a
// message-length uvarint and can never be zero, so the server peeks one
// byte and routes the connection to the right codec. A gob peer sends no
// hello and is served exactly as before.
//
// Frames. After the handshake every message in both directions is one
// frame, reusing the CRC-framed record idiom of internal/store:
//
//	[4B LE payload length][4B LE CRC-32 (IEEE) of payload][payload]
//	payload = [uvarint request id][envelope bytes]
//
// The request id correlates replies with requests: a client may have
// many frames in flight on one connection and the server answers each
// frame as its handler finishes, in any order (pipelining). Envelope
// bytes are produced by the protocol package's Codec — the transport
// never interprets them.
//
// Envelope encoding primitives. Integers are uvarints (zigzag for
// signed values), float64s are 8-byte little-endian IEEE 754 bits,
// strings and slices are length-prefixed. A uvarint must use its
// shortest form, so every accepted envelope re-encodes byte for byte.
// Sparse float64 slices (version 2) carry the length, then one
// (index delta, float64) pair per entry that is not +0, then a 0 delta
// that ends the list. The Append*/Dec helpers below are shared by the
// protocol codec and the WAL record body of internal/store, so every
// field is encoded one way.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"
)

const (
	// Version is the newest binary protocol version this package speaks.
	Version = 2
	// MinVersion is the oldest version it still speaks. Version 2 sends
	// alloc replies' takes as sparse slices, which a version-1 peer
	// would misdecode, and no version-1 encoder is kept.
	MinVersion = 2
	// frameHeaderSize is the length+CRC prefix of every frame.
	frameHeaderSize = 8
	// MaxFramePayload bounds one frame's payload; a length field beyond
	// it is treated as a corrupt or hostile stream, not an allocation
	// request.
	MaxFramePayload = 16 << 20
	// helloSize is the fixed length of the handshake hello/accept.
	helloSize = 5
)

// hsMagic is the handshake magic. The 0x00 lead byte cannot begin a gob
// stream (gob frames a positive message length first), which is what
// makes codec detection a one-byte peek.
var hsMagic = [4]byte{0x00, 'G', 'R', 'M'}

// ErrNotBinary reports that the peer did not open with the binary
// handshake magic — it is speaking gob (or garbage).
var ErrNotBinary = errors.New("transport: peer did not send the binary handshake")

// IsBinaryHello reports whether a connection whose first byte is b is
// opening the binary handshake rather than a gob stream.
func IsBinaryHello(b byte) bool { return b == hsMagic[0] }

// WriteHello sends one handshake message (client hello or server
// accept) proposing or confirming the given protocol version.
func WriteHello(w io.Writer, version byte) error {
	var msg [helloSize]byte
	copy(msg[:], hsMagic[:])
	msg[4] = version
	if _, err := w.Write(msg[:]); err != nil {
		return fmt.Errorf("transport: write handshake: %w", err)
	}
	return nil
}

// ReadHello consumes one handshake message and returns the version the
// peer proposed or accepted. A stream that does not start with the
// binary magic returns ErrNotBinary.
func ReadHello(r io.Reader) (byte, error) {
	var msg [helloSize]byte
	if _, err := io.ReadFull(r, msg[:]); err != nil {
		return 0, fmt.Errorf("transport: read handshake: %w", err)
	}
	if [4]byte(msg[:4]) != hsMagic {
		return 0, ErrNotBinary
	}
	if msg[4] == 0 {
		return 0, fmt.Errorf("transport: handshake proposed version 0")
	}
	return msg[4], nil
}

// NegotiateVersion picks the version a server speaks with a client that
// proposed the given one: the highest version both sides know. A
// proposal below MinVersion is an error; the server must not answer it.
func NegotiateVersion(proposed byte) (byte, error) {
	if proposed < MinVersion {
		return 0, fmt.Errorf("transport: peer proposed protocol version %d, this side speaks %d to %d", proposed, MinVersion, Version)
	}
	return min(proposed, Version), nil
}

// CheckAccepted validates the version a server accepted against the
// one a client proposed: it must be one this package speaks and no
// newer than the proposal.
func CheckAccepted(proposed, accepted byte) error {
	if accepted < MinVersion || accepted > proposed {
		return fmt.Errorf("transport: server accepted protocol version %d to a proposal of %d, this side speaks %d to %d", accepted, proposed, MinVersion, Version)
	}
	return nil
}

// FrameWriter writes length+CRC framed messages, reusing one buffer
// across frames. Not safe for concurrent use: callers serialize writes
// (the server's per-connection writer goroutine, the client's write
// mutex).
type FrameWriter struct {
	w   io.Writer
	buf []byte
}

// NewFrameWriter frames messages onto w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: w, buf: make([]byte, 0, 256)}
}

// WriteFrame emits one frame whose payload is the request id followed
// by the envelope bytes produced by enc, which must append to the slice
// it is given and return the result.
func (fw *FrameWriter) WriteFrame(id uint64, enc func([]byte) ([]byte, error)) error {
	buf := append(fw.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	buf = binary.AppendUvarint(buf, id)
	buf, err := enc(buf)
	if err != nil {
		return err
	}
	fw.buf = buf // keep the grown buffer even on error paths below
	payload := buf[frameHeaderSize:]
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("transport: frame payload %d bytes exceeds limit", len(payload))
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	if _, err := fw.w.Write(buf); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// FrameReader reads length+CRC framed messages, reusing one buffer. The
// payload it returns is valid only until the next ReadFrame call.
type FrameReader struct {
	r   io.Reader
	buf []byte
}

// NewFrameReader reads frames from r (wrap in a bufio.Reader first when
// r is a raw connection — the header and payload are read separately).
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, buf: make([]byte, 256)}
}

// ReadFrame reads one frame, verifies its CRC, and splits the payload
// into the request id and the envelope bytes. io.EOF is returned
// unwrapped when the stream ends cleanly between frames.
func (fr *FrameReader) ReadFrame() (id uint64, envelope []byte, err error) {
	var header [frameHeaderSize]byte
	if _, err := io.ReadFull(fr.r, header[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("transport: read frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(header[0:4])
	if n > MaxFramePayload {
		return 0, nil, fmt.Errorf("transport: frame payload %d bytes exceeds limit", n)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	payload := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return 0, nil, fmt.Errorf("transport: read frame payload: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(header[4:8]) {
		return 0, nil, fmt.Errorf("transport: frame CRC mismatch")
	}
	id, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, nil, fmt.Errorf("transport: frame missing request id")
	}
	return id, payload[k:], nil
}

// Codec translates between protocol envelopes and binary payload bytes.
// The transport stays protocol-agnostic: the request/response types are
// the same `any` values the Handler sees, and the protocol package owns
// their field layout.
type Codec interface {
	// DecodeRequest parses one request envelope from a frame payload.
	DecodeRequest(data []byte) (any, error)
	// AppendResponse appends one response envelope to dst.
	AppendResponse(dst []byte, resp any) ([]byte, error)
}

// --- envelope encoding primitives ---

// AppendUvarint appends v as a uvarint.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendInt appends v zigzag-encoded, so small negative values stay
// small on the wire.
func AppendInt(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64((v<<1)^(v>>63)))
}

// AppendFloat64 appends v as its 8-byte little-endian IEEE 754 bits.
func AppendFloat64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendFloat64s appends a length-prefixed float64 slice.
func AppendFloat64s(dst []byte, xs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = AppendFloat64(dst, x)
	}
	return dst
}

// AppendSparseFloat64s appends xs in sparse form, in one pass: the
// length, one (index delta, value) pair per entry whose bits are not
// +0, and a 0 delta that ends the list. A delta is the entry's index
// minus the previous entry's (the first counts from -1), so it is at
// least 1 and the indexes strictly increase. -0 is carried like any
// other non-zero bit pattern, so the decoded slice is bit-identical to
// xs.
func AppendSparseFloat64s(dst []byte, xs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	next := 0
	for i, x := range xs {
		if math.Float64bits(x) == 0 {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(i+1-next))
		dst = AppendFloat64(dst, x)
		next = i + 1
	}
	return binary.AppendUvarint(dst, 0)
}

// Dec is a cursor over an envelope payload. Reads past the end or
// malformed fields latch an error and return zero values, so decoders
// can read a whole struct and check Err once at the end.
type Dec struct {
	buf []byte
	err error
}

// NewDec starts decoding data.
func NewDec(data []byte) *Dec { return &Dec{buf: data} }

func (d *Dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("transport: truncated or malformed %s field", what)
	}
}

// Err returns the first decode error, nil when all reads succeeded.
func (d *Dec) Err() error { return d.err }

// Done returns an error when decoding failed or trailing bytes remain —
// an envelope must be consumed exactly.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("transport: %d trailing bytes after envelope", len(d.buf))
	}
	return nil
}

// uvarint parses one shortest-form uvarint from buf; k <= 0 when buf
// holds none. binary.Uvarint also accepts padded forms (0x80 0x00 for
// 0), which would let two byte strings decode to the same value.
func uvarint(buf []byte) (v uint64, k int) {
	v, k = binary.Uvarint(buf)
	if k > 1 && buf[k-1] == 0 {
		return 0, -1
	}
	return v, k
}

// Uvarint reads one uvarint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, k := uvarint(d.buf)
	if k <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.buf = d.buf[k:]
	return v
}

// Int reads one zigzag-encoded signed integer.
func (d *Dec) Int() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Float64 reads one 8-byte float.
func (d *Dec) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

// String reads one length-prefixed string.
func (d *Dec) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)) < n {
		d.fail("string")
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// Float64s reads one length-prefixed float64 slice (nil when empty).
func (d *Dec) Float64s() []float64 {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	if uint64(len(d.buf)) < 8*n {
		d.fail("float64 slice")
		return nil
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.buf[8*i:]))
	}
	d.buf = d.buf[8*n:]
	return xs
}

// SparseFloat64s reads one AppendSparseFloat64s slice back into dense
// form (nil when its length is 0). The pairs are checked before
// anything is allocated: a length above MaxFramePayload/8 (more floats
// than the dense form fits in one frame), an index at or past the
// length, and an explicit +0 entry (the form is canonical) each fail
// the read.
func (d *Dec) SparseFloat64s() []float64 {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > MaxFramePayload/8 {
		d.fail("sparse float64 slice length")
		return nil
	}
	rest, next := d.buf, uint64(0)
	for {
		delta, k := uvarint(rest)
		if k <= 0 || delta > n-next || (delta != 0 && len(rest) < k+8) {
			d.fail("sparse float64 slice")
			return nil
		}
		rest = rest[k:]
		if delta == 0 {
			break
		}
		if binary.LittleEndian.Uint64(rest) == 0 {
			d.fail("sparse float64 slice (explicit zero)")
			return nil
		}
		rest = rest[8:]
		next += delta
	}
	var xs []float64
	if n > 0 {
		xs = make([]float64, n)
	}
	for next = 0; ; {
		delta, k := uvarint(d.buf)
		d.buf = d.buf[k:]
		if delta == 0 {
			return xs
		}
		next += delta
		xs[next-1] = math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
		d.buf = d.buf[8:]
	}
}

// Duration reads a zigzag-encoded time.Duration.
func (d *Dec) Duration() time.Duration { return time.Duration(d.Int()) }

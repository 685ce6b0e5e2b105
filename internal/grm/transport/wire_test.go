package transport_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/grm/transport"
)

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := transport.WriteHello(&buf, transport.Version); err != nil {
		t.Fatal(err)
	}
	if !transport.IsBinaryHello(buf.Bytes()[0]) {
		t.Error("hello lead byte not recognized as binary")
	}
	v, err := transport.ReadHello(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v != transport.Version {
		t.Errorf("version = %d, want %d", v, transport.Version)
	}
}

func TestReadHelloRejectsGobAndGarbage(t *testing.T) {
	// A gob stream opens with a positive message-length uvarint — never
	// 0x00 — so it must be classified as not-binary.
	gobish := []byte{0x2c, 0xff, 0x81, 0x03, 0x01}
	if transport.IsBinaryHello(gobish[0]) {
		t.Error("gob lead byte classified as binary hello")
	}
	if _, err := transport.ReadHello(bytes.NewReader(gobish)); !errors.Is(err, transport.ErrNotBinary) {
		t.Errorf("gob-like stream: err = %v, want ErrNotBinary", err)
	}
	// Right magic, version 0: malformed.
	if _, err := transport.ReadHello(bytes.NewReader([]byte{0x00, 'G', 'R', 'M', 0x00})); err == nil {
		t.Error("version 0 accepted")
	}
	// Truncated hello.
	if _, err := transport.ReadHello(bytes.NewReader([]byte{0x00, 'G'})); err == nil {
		t.Error("truncated hello accepted")
	}
}

func TestNegotiateVersion(t *testing.T) {
	if got, err := transport.NegotiateVersion(transport.Version); err != nil || got != transport.Version {
		t.Errorf("same version negotiates to %d, %v", got, err)
	}
	if got, err := transport.NegotiateVersion(200); err != nil || got != transport.Version {
		t.Errorf("future version negotiates to %d, %v; want %d", got, err, transport.Version)
	}
	// Version 1 carried alloc takes dense; a v1 peer would misdecode the
	// sparse reply, so the proposal is refused, not downgraded.
	if got, err := transport.NegotiateVersion(1); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("version 1 negotiates to %d, %v; want a refusal naming the version", got, err)
	}
}

func TestCheckAccepted(t *testing.T) {
	if err := transport.CheckAccepted(transport.Version, transport.Version); err != nil {
		t.Errorf("own version refused: %v", err)
	}
	if err := transport.CheckAccepted(transport.Version, 1); err == nil {
		t.Error("server's version-1 accept taken")
	}
	if err := transport.CheckAccepted(transport.Version, transport.Version+1); err == nil {
		t.Error("accept above the proposal taken")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := transport.NewFrameWriter(&buf)
	payloads := map[uint64][]byte{
		1:       []byte("hello"),
		7:       {},
		1 << 40: []byte("wide id"),
	}
	for id, p := range payloads {
		p := p
		err := fw.WriteFrame(id, func(dst []byte) ([]byte, error) { return append(dst, p...), nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	fr := transport.NewFrameReader(&buf)
	seen := 0
	for {
		id, envelope, err := fr.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want, ok := payloads[id]
		if !ok {
			t.Fatalf("unexpected frame id %d", id)
		}
		if !bytes.Equal(envelope, want) {
			t.Errorf("frame %d payload = %q, want %q", id, envelope, want)
		}
		seen++
	}
	if seen != len(payloads) {
		t.Errorf("read %d frames, want %d", seen, len(payloads))
	}
}

func TestFrameCRCMismatch(t *testing.T) {
	var buf bytes.Buffer
	fw := transport.NewFrameWriter(&buf)
	if err := fw.WriteFrame(1, func(dst []byte) ([]byte, error) { return append(dst, "payload"...), nil }); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xff // flip a payload bit
	_, _, err := transport.NewFrameReader(bytes.NewReader(raw)).ReadFrame()
	if err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("corrupted frame: err = %v, want CRC mismatch", err)
	}
}

func TestFrameRejectsOversizedLength(t *testing.T) {
	var header [8]byte
	binary.LittleEndian.PutUint32(header[0:4], transport.MaxFramePayload+1)
	_, _, err := transport.NewFrameReader(bytes.NewReader(header[:])).ReadFrame()
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("oversized frame: err = %v", err)
	}
}

func TestFrameTruncatedMidPayload(t *testing.T) {
	var buf bytes.Buffer
	fw := transport.NewFrameWriter(&buf)
	if err := fw.WriteFrame(3, func(dst []byte) ([]byte, error) { return append(dst, "truncate me"...), nil }); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-4]
	_, _, err := transport.NewFrameReader(bytes.NewReader(raw)).ReadFrame()
	if err == nil || errors.Is(err, io.EOF) {
		t.Errorf("truncated frame: err = %v, want non-EOF error", err)
	}
}

func TestDecRoundTrip(t *testing.T) {
	var dst []byte
	dst = transport.AppendUvarint(dst, 0)
	dst = transport.AppendUvarint(dst, 1<<60)
	dst = transport.AppendInt(dst, -1)
	dst = transport.AppendInt(dst, math.MinInt64)
	dst = transport.AppendInt(dst, math.MaxInt64)
	dst = transport.AppendFloat64(dst, -0.125)
	dst = transport.AppendFloat64(dst, math.Inf(1))
	dst = transport.AppendString(dst, "")
	dst = transport.AppendString(dst, "nonempty ∞ string")
	dst = transport.AppendFloat64s(dst, nil)
	dst = transport.AppendFloat64s(dst, []float64{1, -2.5, 0})
	dst = transport.AppendSparseFloat64s(dst, nil)
	dst = transport.AppendSparseFloat64s(dst, []float64{0, 0, 0})
	dst = transport.AppendSparseFloat64s(dst, []float64{3, 0, math.Copysign(0, -1), 0, math.NaN(), 7})
	dst = transport.AppendInt(dst, int64(5*time.Second))

	d := transport.NewDec(dst)
	if v := d.Uvarint(); v != 0 {
		t.Errorf("uvarint = %d", v)
	}
	if v := d.Uvarint(); v != 1<<60 {
		t.Errorf("uvarint = %d", v)
	}
	if v := d.Int(); v != -1 {
		t.Errorf("int = %d", v)
	}
	if v := d.Int(); v != math.MinInt64 {
		t.Errorf("int = %d, want MinInt64", v)
	}
	if v := d.Int(); v != math.MaxInt64 {
		t.Errorf("int = %d, want MaxInt64", v)
	}
	if v := d.Float64(); v != -0.125 {
		t.Errorf("float = %g", v)
	}
	if v := d.Float64(); !math.IsInf(v, 1) {
		t.Errorf("float = %g, want +Inf", v)
	}
	if v := d.String(); v != "" {
		t.Errorf("string = %q", v)
	}
	if v := d.String(); v != "nonempty ∞ string" {
		t.Errorf("string = %q", v)
	}
	if v := d.Float64s(); v != nil {
		t.Errorf("empty slice = %v, want nil", v)
	}
	if v := d.Float64s(); len(v) != 3 || v[0] != 1 || v[1] != -2.5 || v[2] != 0 {
		t.Errorf("slice = %v", v)
	}
	if v := d.SparseFloat64s(); v != nil {
		t.Errorf("empty sparse slice = %v, want nil", v)
	}
	if v := d.SparseFloat64s(); len(v) != 3 || v[0] != 0 || v[1] != 0 || v[2] != 0 {
		t.Errorf("all-zero sparse slice = %v", v)
	}
	want := []float64{3, 0, math.Copysign(0, -1), 0, math.NaN(), 7}
	if v := d.SparseFloat64s(); len(v) != len(want) {
		t.Errorf("sparse slice = %v, want %v", v, want)
	} else {
		for i := range want {
			if math.Float64bits(v[i]) != math.Float64bits(want[i]) {
				t.Errorf("sparse slice[%d] bits = %x, want %x", i, math.Float64bits(v[i]), math.Float64bits(want[i]))
			}
		}
	}
	if v := d.Duration(); v != 5*time.Second {
		t.Errorf("duration = %v", v)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestDecLatchesErrors(t *testing.T) {
	// Truncated float: the error latches and every later read is zero.
	d := transport.NewDec([]byte{1, 2, 3})
	if v := d.Float64(); v != 0 {
		t.Errorf("truncated float = %g", v)
	}
	if d.Err() == nil {
		t.Fatal("no error latched")
	}
	if v := d.Uvarint(); v != 0 {
		t.Errorf("read after error = %d", v)
	}
	if d.Done() == nil {
		t.Error("Done nil after error")
	}

	// Trailing bytes are an error even when every read succeeded.
	d = transport.NewDec(transport.AppendUvarint(nil, 9))
	_ = d.Uvarint()
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	d = transport.NewDec(append(transport.AppendUvarint(nil, 9), 0xAA))
	_ = d.Uvarint()
	if d.Done() == nil {
		t.Error("trailing bytes accepted")
	}

	// String length prefix pointing past the buffer.
	d = transport.NewDec(transport.AppendUvarint(nil, 1000))
	if v := d.String(); v != "" {
		t.Errorf("overlong string = %q", v)
	}
	if d.Err() == nil {
		t.Error("overlong string length accepted")
	}

	// Float64s length prefix pointing past the buffer must not allocate
	// or succeed.
	d = transport.NewDec(transport.AppendUvarint(nil, 1<<50))
	if v := d.Float64s(); v != nil {
		t.Errorf("overlong slice = %v", v)
	}
	if d.Err() == nil {
		t.Error("overlong slice length accepted")
	}
}

// TestSparseFloat64sRejects checks each malformed form fails the read
// and leaves no slice behind.
func TestSparseFloat64sRejects(t *testing.T) {
	u := transport.AppendUvarint
	f := transport.AppendFloat64
	cases := map[string][]byte{
		"length beyond a frame's dense capacity": u(nil, transport.MaxFramePayload/8+1),
		"index at the length":                    u(f(u(u(nil, 2), 3), 1), 0),
		"index far past the length":              u(f(u(u(nil, 2), 1<<62), 1), 0),
		"second index past the length":           u(f(u(f(u(u(nil, 2), 2), 1), 1), 1), 0),
		"explicit zero":                          u(f(u(u(nil, 2), 1), 0), 0),
		"missing terminator":                     f(u(u(nil, 2), 1), 1),
		"truncated value":                        u(u(nil, 2), 1),
		"padded uvarint":                         {0x82, 0x00, 0x00},
	}
	for name, data := range cases {
		d := transport.NewDec(data)
		if v := d.SparseFloat64s(); v != nil || d.Err() == nil {
			t.Errorf("%s: decoded %v, err %v", name, v, d.Err())
		}
	}
	// A huge length with no pairs is within the bound but must not be
	// allocated before the list is known to be well formed.
	d := transport.NewDec(u(nil, transport.MaxFramePayload/8))
	if v := d.SparseFloat64s(); v != nil || d.Err() == nil {
		t.Errorf("unterminated max-length slice: decoded %d floats, err %v", len(v), d.Err())
	}
}

package grm

import (
	"bytes"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/grm/transport"
)

func TestRequestCodecRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Register: &RegisterRequest{Name: "siteA", Capacity: 100.5}},
		{Register: &RegisterRequest{Name: "", Capacity: 0}},
		{Report: &ReportRequest{Principal: 3, Available: 12.25}},
		{Report: &ReportRequest{Principal: 0, Available: 0}},
		{Share: &ShareRequest{From: 1, To: 2, Fraction: 0.5}},
		{Share: &ShareRequest{From: 0, To: 4, Quantity: 17}},
		{Revoke: &RevokeRequest{Ticket: 9}},
		{Alloc: &AllocRequest{Principal: 2, Amount: 33.125}},
		{Release: &ReleaseRequest{Lease: 7}},
		{Renew: &RenewRequest{Lease: 7}},
		{Caps: &CapsRequest{}},
		{Peers: &PeersRequest{}},
		{Ping: &PingRequest{}},
	}
	for i, req := range reqs {
		enc, err := appendRequest(nil, req)
		if err != nil {
			t.Fatalf("request %d: encode: %v", i, err)
		}
		got, err := decodeRequest(enc)
		if err != nil {
			t.Fatalf("request %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("request %d round trip = %+v, want %+v", i, got, req)
		}
	}
}

func TestResponseCodecRoundTrip(t *testing.T) {
	resps := []*Response{
		{Err: "boom"},
		{Register: &RegisterReply{Principal: 4}},
		{Report: &ReportReply{}},
		{Share: &ShareReply{Ticket: 11}},
		{Revoke: &ReportReply{}},
		{Alloc: &AllocReply{Takes: []float64{1, 0, 2.5}, Theta: 0.125, Lease: 3, TTL: 10 * time.Second}},
		{Alloc: &AllocReply{Takes: []float64{0, 0, 0, 4}, Theta: 1, Lease: 9}},
		{Alloc: &AllocReply{Theta: 0, Lease: 0}},
		{Release: &ReportReply{}},
		{Renew: &RenewReply{TTL: 3 * time.Second}},
		{Caps: &CapsReply{Available: []float64{5, 6}, Capacities: []float64{7, 8}}},
		{Caps: &CapsReply{}},
		{Peers: &PeersReply{Names: []string{"a", "", "c"}}},
		{Peers: &PeersReply{}},
		{Ping: &PingReply{}},
		{Err: "partial failure", Report: &ReportReply{}},
		{Err: "grm: caps: no principals registered", Code: CodeNoPrincipals},
	}
	for i, resp := range resps {
		enc, err := appendResponse(nil, resp)
		if err != nil {
			t.Fatalf("response %d: encode: %v", i, err)
		}
		got, err := decodeResponse(enc)
		if err != nil {
			t.Fatalf("response %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("response %d round trip = %+v, want %+v", i, got, resp)
		}
	}
}

func TestCodecRejectsMalformed(t *testing.T) {
	if _, err := appendRequest(nil, &Request{}); err == nil {
		t.Error("empty request encoded")
	}
	if _, err := decodeRequest(nil); err == nil {
		t.Error("empty request envelope decoded")
	}
	if _, err := decodeRequest([]byte{200}); err == nil {
		t.Error("unknown request kind decoded")
	}
	enc, err := appendRequest(nil, &Request{Ping: &PingRequest{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeRequest(append(enc, 0x01)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := decodeResponse(nil); err == nil {
		t.Error("empty response envelope decoded")
	}
	enc, err = appendResponse(nil, &Response{Alloc: &AllocReply{Takes: []float64{1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeResponse(enc[:len(enc)-3]); err == nil {
		t.Error("truncated alloc reply decoded")
	}
}

// TestCodecNoPanicOnGarbage feeds deterministic pseudo-random bytes to
// both decoders: any outcome is fine except a panic, and anything
// accepted must re-encode cleanly (garbage that parses is harmless —
// the transport CRC guards framing).
func TestCodecNoPanicOnGarbage(t *testing.T) {
	state := uint64(0x9e3779b97f4a7c15)
	next := func() byte {
		state = state*6364136223846793005 + 1442695040888963407
		return byte(state >> 56)
	}
	for round := 0; round < 2000; round++ {
		n := int(next()) % 40
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = next()
		}
		if req, err := decodeRequest(buf); err == nil {
			if _, err := appendRequest(nil, req); err != nil {
				t.Fatalf("accepted request %+v failed to re-encode: %v", req, err)
			}
		}
		if resp, err := decodeResponse(buf); err == nil {
			if _, err := appendResponse(nil, resp); err != nil {
				t.Fatalf("accepted response %+v failed to re-encode: %v", resp, err)
			}
		}
	}
}

// TestAllocReplyIsSparse: an alloc reply's size follows the principals
// the plan took from, not the number in the system.
func TestAllocReplyIsSparse(t *testing.T) {
	takes := make([]float64, 16000)
	takes[17], takes[4000], takes[15999] = 3, 2, 1
	enc, err := appendResponse(nil, &Response{Alloc: &AllocReply{Takes: takes, Theta: 0.5, Lease: 123456, TTL: 30 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= 100 {
		t.Errorf("alloc reply taking from 3 of 16000 principals is %d bytes, want < 100", len(enc))
	}
}

// TestClientRefusesOldServer: a server that accepts version 1 would
// send dense alloc replies; the client must refuse the connection.
func TestClientRefusesOldServer(t *testing.T) {
	cfg := DialConfig{Timeout: 5 * time.Second, Codec: CodecBinary}
	cfg.Dialer = func(string) (net.Conn, error) {
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			if _, err := transport.ReadHello(server); err != nil {
				return
			}
			transport.WriteHello(server, 1)
		}()
		return client, nil
	}
	_, err := DialWithConfig("old-grm", "site", 10, cfg)
	if err == nil || !strings.Contains(err.Error(), "accepted protocol version 1") {
		t.Fatalf("dial to a version-1 server: err = %v, want a version refusal", err)
	}
}

// FuzzResponseDecode feeds arbitrary envelopes to the response decoder:
// it must not panic, must not allocate beyond what the largest legal
// frame can ask for, and anything it accepts must re-encode to exactly
// the input bytes (the envelope form is canonical).
func FuzzResponseDecode(f *testing.F) {
	seeds := []*Response{
		{Err: "boom", Code: CodeNoPrincipals},
		{Register: &RegisterReply{Principal: 4}},
		{Share: &ShareReply{Ticket: 11}},
		{Alloc: &AllocReply{Takes: []float64{1, 0, 2.5}, Theta: 0.125, Lease: 3, TTL: 10 * time.Second}},
		{Alloc: &AllocReply{Takes: make([]float64, 2000)}},
		{Renew: &RenewReply{TTL: 3 * time.Second}},
		{Caps: &CapsReply{Available: []float64{5, 6}, Capacities: []float64{7, 8}}},
		{Peers: &PeersReply{Names: []string{"a", "", "c"}}},
		{Ping: &PingReply{}},
	}
	for _, resp := range seeds {
		enc, err := appendResponse(nil, resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{0, 0, kindAlloc, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := decodeResponse(data)
		runtime.ReadMemStats(&after)
		// One dense float slice may fill a maximal frame; everything else
		// is bounded by the input (string and slice headers per byte).
		if grew := after.TotalAlloc - before.TotalAlloc; grew > transport.MaxFramePayload+64*uint64(len(data))+4096 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		enc, err := appendResponse(nil, resp)
		if err != nil {
			t.Fatalf("accepted response %+v failed to re-encode: %v", resp, err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x re-encodes to %x", data, enc)
		}
	})
}

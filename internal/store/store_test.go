package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleRecords() []*Record {
	return []*Record{
		{Seq: 1, Kind: KindRegister, Name: "A", Capacity: 100},
		{Seq: 2, Kind: KindRegister, Name: "B", Capacity: 80},
		{Seq: 3, Kind: KindShare, From: 1, To: 0, Fraction: 0.5, Ticket: 0},
		{Seq: 4, Kind: KindReport, Principal: 1, Available: 60},
		{Seq: 5, Kind: KindAlloc, Lease: 1, Takes: []float64{30, 10}, Expires: 12345},
		{Seq: 6, Kind: KindRelease, Lease: 1, Takes: []float64{30, 10}},
	}
}

func replayAll(t *testing.T, l Log) []*Record {
	t.Helper()
	var got []*Record
	if err := l.Replay(func(r *Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func TestMemLogRoundTrip(t *testing.T) {
	l := NewMemLog()
	want := sampleRecords()
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	got := replayAll(t, l)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	state := &Record{Seq: 6, Kind: KindState, State: &State{Names: []string{"A", "B"}}}
	if err := l.Compact(state); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, l); len(got) != 1 || got[0].Kind != KindState {
		t.Fatalf("after compact replay = %+v, want single state record", got)
	}
	if err := l.Compact(&Record{Kind: KindAlloc}); err == nil {
		t.Error("Compact accepted a non-state record")
	}
}

func TestFileLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// Replay flushes buffered appends, so it sees them pre-Sync.
	if got := replayAll(t, l); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(&Record{Seq: 7, Kind: KindReport}); err == nil {
		t.Error("append after Close succeeded")
	}

	// Reopen: the records persist.
	l2, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := replayAll(t, l2); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened replay mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestFileLogCompactAndTail(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	state := &Record{Seq: 6, Kind: KindState, State: &State{
		Names:    []string{"A", "B"},
		Reported: []float64{100, 80},
		Avail:    []float64{100, 60},
	}}
	if err := l.Compact(state); err != nil {
		t.Fatal(err)
	}
	tail := &Record{Seq: 7, Kind: KindReport, Principal: 0, Available: 42}
	if err := l.Append(tail); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := replayAll(t, l2)
	if len(got) != 2 || got[0].Kind != KindState || got[1].Seq != 7 {
		t.Fatalf("replay after compact = %+v, want [state, seq 7]", got)
	}
	if got[0].State == nil || !reflect.DeepEqual(got[0].State.Avail, []float64{100, 60}) {
		t.Fatalf("state payload lost: %+v", got[0])
	}
}

// TestFileLogStaleTailSkipped models a crash between the snapshot rename
// and the WAL truncate: tail records already folded into the snapshot
// (seq <= the snapshot's) must not be replayed twice.
func TestFileLogStaleTailSkipped(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Write the snapshot by hand, leaving the WAL untruncated — exactly
	// the torn-compaction state.
	state := &Record{Seq: 6, Kind: KindState, State: &State{Names: []string{"A", "B"}}}
	frame, err := appendFrame(nil, state)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l)
	if len(got) != 1 || got[0].Kind != KindState {
		t.Fatalf("replay = %d records (%+v), want just the snapshot", len(got), got)
	}
	l.Close()
}

// TestFileLogTruncatedTail torn-writes the WAL at every byte boundary of
// the last frame and checks recovery stops exactly at the last intact
// record, then accepts new appends cleanly.
func TestFileLogTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	lastFrame, err := appendFrame(nil, recs[len(recs)-1])
	if err != nil {
		t.Fatal(err)
	}
	prefixLen := len(full) - len(lastFrame)

	for cut := prefixLen + 1; cut < len(full); cut += 3 {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, walName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tl, err := OpenFileLog(sub)
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		got := replayAll(t, tl)
		if len(got) != len(recs)-1 {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), len(recs)-1)
		}
		// The torn tail was truncated away; a new append must extend the
		// valid prefix, not follow garbage.
		next := &Record{Seq: 99, Kind: KindReport, Principal: 0, Available: 7}
		if err := tl.Append(next); err != nil {
			t.Fatal(err)
		}
		got = replayAll(t, tl)
		if len(got) != len(recs) || got[len(got)-1].Seq != 99 {
			t.Fatalf("cut %d: after append got %d records, last %+v", cut, len(got), got[len(got)-1])
		}
		tl.Close()
	}
}

// TestFileLogCorruptMiddle flips a payload byte mid-file: recovery keeps
// the prefix before the corrupt frame and drops everything after.
func TestFileLogCorruptMiddle(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte inside the third frame's payload.
	var off int64
	for i := 0; i < 2; i++ {
		fr, _ := appendFrame(nil, recs[i])
		off += int64(len(fr))
	}
	full[off+frameHeaderSize+2] ^= 0xFF
	if err := os.WriteFile(walPath, full, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := replayAll(t, l2)
	if len(got) != 2 {
		t.Fatalf("recovered %d records past corruption, want 2", len(got))
	}
}

func TestDecodeRecordsRejectsOversizedLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})
	recs, n, err := DecodeRecords(&buf)
	if err != nil || len(recs) != 0 || n != 0 {
		t.Fatalf("DecodeRecords = %v, %d, %v; want clean empty stop", recs, n, err)
	}
}

// everyKind returns one record of every Kind with the fields the GRM
// writes for it, in increasing Seq order.
func everyKind() []*Record {
	takes := make([]float64, 2000)
	takes[3], takes[1700] = 12.5, 0.25
	return []*Record{
		{Seq: 1, Kind: KindState, State: &State{
			Declared: []byte(`{"principals":["A","B"]}`),
			Names:    []string{"A", "B", "C"},
			Reported: []float64{100, 80, 0},
			Avail:    []float64{70, 80, 0},
			Shares: []ShareState{
				{From: 1, To: 0, Fraction: 0.5},
				{From: 2, To: 0, Quantity: 7, Revoked: true},
			},
			Leases: []LeaseState{
				{Token: 4, Takes: []float64{30, 0, 0}, Expires: 1e18, ParentLease: 9},
				{Token: 6, Takes: []float64{0, 0, 0}},
			},
			Borrows:   []BorrowState{{ParentLease: 9, Amount: 12.5}},
			NextLease: 7,
		}},
		{Seq: 2, Kind: KindSnapshotLoad, Snapshot: []byte(`{"principals":["A"]}`)},
		{Seq: 3, Kind: KindRegister, Principal: 3, Name: "site-D", Capacity: 50},
		{Seq: 4, Kind: KindReport, Principal: 3, Available: 42.75},
		{Seq: 5, Kind: KindShare, From: 3, To: 0, Fraction: 0.25, Quantity: 0, Ticket: 2},
		{Seq: 6, Kind: KindRevoke, Ticket: 2},
		{Seq: 7, Kind: KindAlloc, Principal: 1, Amount: 12.75, Takes: takes, Lease: 7, Expires: 1_700_000_000_000_000_000, ParentLease: 11},
		{Seq: 8, Kind: KindRelease, Lease: 7, ParentLease: 11},
		{Seq: 9, Kind: KindRenew, Lease: 4, Expires: 1_700_000_001_000_000_000},
		{Seq: 10, Kind: KindExpire, Lease: 4, ParentLease: 9},
		{Seq: 11, Kind: KindBorrow, Principal: 1, Amount: 3.5, ParentLease: 12},
		{Seq: 12, Kind: KindRepay, ParentLease: 12},
	}
}

// TestRecordRoundTripEveryKind: every Kind's binary body decodes to the
// record it was built from, and re-encodes to the same bytes.
func TestRecordRoundTripEveryKind(t *testing.T) {
	seen := map[Kind]bool{}
	for _, rec := range everyKind() {
		seen[rec.Kind] = true
		body := appendRecord(nil, rec)
		got, err := decodeRecord(body)
		if err != nil {
			t.Fatalf("%v: decode: %v", rec.Kind, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("%v round trip:\ngot  %+v\nwant %+v", rec.Kind, got, rec)
		}
		if again := appendRecord(nil, got); !bytes.Equal(again, body) {
			t.Errorf("%v re-encodes to different bytes", rec.Kind)
		}
	}
	for k := range kindNames {
		if !seen[k] {
			t.Errorf("kind %v not covered", k)
		}
	}
}

// TestRecordRoundTripBitExact sets every field at once, with values a
// text format would bend (-0, NaN payloads, infinities, extreme
// integers): the decoded floats must carry the same bits.
func TestRecordRoundTripBitExact(t *testing.T) {
	negZero, nan := math.Copysign(0, -1), math.Float64frombits(0x7ff8_dead_beef_0001)
	rec := &Record{
		Seq: math.MaxUint64, Kind: KindAlloc,
		Principal: -1, Name: "ünïcode", Capacity: negZero, Available: math.Inf(-1),
		From: math.MaxInt64, To: math.MinInt64, Fraction: nan, Quantity: math.SmallestNonzeroFloat64,
		Ticket: 1, Lease: -7, Takes: []float64{negZero, 0, nan, math.MaxFloat64, 0},
		Expires: math.MinInt64, ParentLease: 3, Amount: -1e-300,
		Snapshot: []byte{0, 1, 2}, State: &State{Avail: []float64{negZero, nan}},
	}
	body := appendRecord(nil, rec)
	got, err := decodeRecord(body)
	if err != nil {
		t.Fatal(err)
	}
	if again := appendRecord(nil, got); !bytes.Equal(again, body) {
		t.Fatal("record with every field set re-encodes to different bytes")
	}
	bits := func(xs ...float64) (out []uint64) {
		for _, x := range xs {
			out = append(out, math.Float64bits(x))
		}
		return out
	}
	if g, w := bits(got.Capacity, got.Available, got.Fraction, got.Quantity, got.Amount),
		bits(rec.Capacity, rec.Available, rec.Fraction, rec.Quantity, rec.Amount); !reflect.DeepEqual(g, w) {
		t.Errorf("scalar float bits = %x, want %x", g, w)
	}
	if g, w := bits(got.Takes...), bits(rec.Takes...); !reflect.DeepEqual(g, w) {
		t.Errorf("takes bits = %x, want %x", g, w)
	}
	if g, w := bits(got.State.Avail...), bits(rec.State.Avail...); !reflect.DeepEqual(g, w) {
		t.Errorf("state avail bits = %x, want %x", g, w)
	}
	if got.Principal != rec.Principal || got.From != rec.From || got.To != rec.To ||
		got.Expires != rec.Expires || got.Seq != rec.Seq || got.Name != rec.Name {
		t.Errorf("integer or string fields changed: %+v", got)
	}
}

// TestAllocRecordIsSparse: an alloc record's size follows the
// principals it took from, not the number in the shard.
func TestAllocRecordIsSparse(t *testing.T) {
	rec := everyKind()[6]
	frame, err := appendFrame(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) >= 100 {
		t.Errorf("alloc record taking from 2 of %d principals is %d bytes, want < 100", len(rec.Takes), len(frame))
	}
}

// writeWAL writes frames straight into a log directory's WAL file.
func writeWAL(t *testing.T, dir string, frames ...[]byte) []byte {
	t.Helper()
	data := bytes.Join(frames, nil)
	if err := os.WriteFile(filepath.Join(dir, walName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return data
}

// rawFrame frames an arbitrary payload with a valid length and CRC.
func rawFrame(payload []byte) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// TestOpenFileLogRejectsJSONWAL: a WAL of the older JSON record format
// passes every CRC, so it is no torn tail. Opening it is an error, and
// the file is left whole: truncating it would lose every record.
func TestOpenFileLogRejectsJSONWAL(t *testing.T) {
	dir := t.TempDir()
	want := writeWAL(t, dir,
		rawFrame([]byte(`{"seq":1,"kind":3,"name":"A","capacity":100}`)),
		rawFrame([]byte(`{"seq":2,"kind":7,"lease":1,"takes":[30,0]}`)))
	l, err := OpenFileLog(dir)
	if err == nil {
		l.Close()
		t.Fatal("OpenFileLog accepted a JSON-format WAL")
	}
	if !errors.Is(err, ErrBadRecord) {
		t.Errorf("err = %v, want ErrBadRecord", err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, walName)); !bytes.Equal(got, want) {
		t.Errorf("WAL changed from %d to %d bytes", len(want), len(got))
	}
}

// TestReplayRejectsUndecodableFrame: a CRC-valid frame with a known kind
// byte but a body that does not decode (or a Seq that goes backwards)
// passes the open scan untouched, and Replay returns an error rather
// than stopping quietly at it.
func TestReplayRejectsUndecodableFrame(t *testing.T) {
	good := func(rec *Record) []byte {
		frame, err := appendFrame(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	first := good(&Record{Seq: 1, Kind: KindRegister, Name: "A", Capacity: 100})
	for name, bad := range map[string][]byte{
		"short body":     rawFrame([]byte{byte(KindReport), 0}),
		"truncated body": rawFrame([]byte{byte(KindAlloc), 0, 0, 0xFF}),
		"trailing bytes": rawFrame(append(appendRecord(nil, &Record{Seq: 2, Kind: KindRelease, Lease: 1}), 0)),
		"seq regression": good(&Record{Seq: 1, Kind: KindReport, Available: 3}),
		// Takes only (mask bit 10), seq 2, then a 2-long sparse slice.
		"explicit zero":   rawFrame([]byte{byte(KindAlloc), 0x00, 0x04, 2, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0}),
		"index too large": rawFrame([]byte{byte(KindAlloc), 0x00, 0x04, 2, 2, 3, 0, 0, 0, 0, 0, 0, 0xF0, 0x3F, 0}),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			want := writeWAL(t, dir, first, bad, good(&Record{Seq: 3, Kind: KindReport, Available: 4}))
			l, err := OpenFileLog(dir)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer l.Close()
			var n int
			err = l.Replay(func(*Record) error { n++; return nil })
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("replay err = %v after %d records, want ErrBadRecord", err, n)
			}
			if got, _ := os.ReadFile(filepath.Join(dir, walName)); !bytes.Equal(got, want) {
				t.Errorf("WAL changed from %d to %d bytes", len(want), len(got))
			}
		})
	}
}

// BenchmarkOpenReplay times the restart path of one alloc-steady-like
// shard log: OpenFileLog's frame scan, then Replay decoding every record.
// The mix is 2,000 registrations and 200 shares, then 20,000 records of
// alloc-steady's stream — Allocate and Release at 400/s each against one
// Report at 5/s, every alloc taking from 4 of the 2,000 principals.
func BenchmarkOpenReplay(b *testing.B) {
	const n = 2000
	dir := b.TempDir()
	l, err := OpenFileLog(dir)
	if err != nil {
		b.Fatal(err)
	}
	var seq uint64
	add := func(rec *Record) {
		seq++
		rec.Seq = seq
		if err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		add(&Record{Kind: KindRegister, Principal: i, Name: fmt.Sprintf("p%d", i), Capacity: 100})
	}
	for i := 0; i < n/10; i++ {
		add(&Record{Kind: KindShare, From: 10*i + 1, To: 10 * i, Fraction: 0.5, Ticket: i})
	}
	lease := 0
	for i := 0; i < 20_000; i++ {
		switch {
		case i%161 == 160:
			add(&Record{Kind: KindReport, Principal: i % n, Available: 90})
		case i%2 == 0:
			lease++
			takes := make([]float64, n)
			for j := 0; j < 4; j++ {
				takes[(i+37*j)%n] = 2.5
			}
			add(&Record{Kind: KindAlloc, Principal: i % n, Amount: 10, Takes: takes, Lease: lease, Expires: 1_700_000_000_000_000_000 + int64(i)})
		default:
			add(&Record{Kind: KindRelease, Lease: lease})
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := OpenFileLog(dir)
		if err != nil {
			b.Fatal(err)
		}
		var recs int
		if err := l.Replay(func(*Record) error { recs++; return nil }); err != nil {
			b.Fatal(err)
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
		if recs != int(seq) {
			b.Fatalf("replayed %d records, want %d", recs, seq)
		}
	}
}

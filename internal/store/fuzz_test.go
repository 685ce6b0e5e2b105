package store

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// fuzzPrefix is a short valid log — one record of every kind, a
// compacted state with leases among them — whose frames seed the corpus
// and whose records must survive any fuzzed tail appended after them.
func fuzzPrefix(t interface{ Fatal(...any) }) ([]byte, []*Record) {
	recs := everyKind()
	var buf bytes.Buffer
	for _, r := range recs {
		frame, err := appendFrame(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frame)
	}
	return buf.Bytes(), recs
}

// FuzzLogDecode feeds arbitrary bytes through the frame decoder. The
// decoder must never panic; a torn or corrupt frame is a clean stop at
// the last intact record, and a CRC-valid frame that is not a record is
// an ErrBadRecord error that still returns the records before it. The
// intact prefix must always be recovered when anything is appended
// after valid frames.
func FuzzLogDecode(f *testing.F) {
	prefix, recs := fuzzPrefix(f)
	f.Add([]byte{})
	f.Add(prefix)
	f.Add(prefix[:len(prefix)-3])                // torn tail
	f.Add(append([]byte{0xFF, 0xFF}, prefix...)) // garbage header
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})
	for _, r := range recs {
		r := *r
		r.Seq += 100 // follows the prefix when appended after it
		frame, err := appendFrame(nil, &r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Raw bytes: any outcome but a panic, a read error or a foreign
		// error is fine, and the reported valid length must cover exactly
		// the decoded frames.
		recs, n, err := DecodeRecords(bytes.NewReader(data))
		if err != nil && !errors.Is(err, ErrBadRecord) {
			t.Fatalf("in-memory decode errored: %v", err)
		}
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("valid length %d outside [0, %d]", n, len(data))
		}
		reDecoded, n2, err := DecodeRecords(bytes.NewReader(data[:n]))
		if err != nil || n2 != n || len(reDecoded) != len(recs) {
			t.Fatalf("valid prefix not self-consistent: %d records/%d bytes vs %d/%d (%v)",
				len(reDecoded), n2, len(recs), n, err)
		}

		// Valid frames followed by the fuzz input: the prefix records must
		// always be recovered, in order.
		prefix, want := fuzzPrefix(t)
		got, _, err := DecodeRecords(bytes.NewReader(append(append([]byte{}, prefix...), data...)))
		if err != nil && !errors.Is(err, ErrBadRecord) {
			t.Fatalf("prefixed decode errored: %v", err)
		}
		if len(got) < len(want) {
			t.Fatalf("lost prefix records: got %d, want at least %d", len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("prefix record %d mutated:\ngot  %+v\nwant %+v", i, got[i], want[i])
			}
		}
	})
}

package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/grm/transport"
)

// Record body layout. A WAL frame's payload is one record body, built
// from the wire codec's encoding primitives (internal/grm/transport
// wire.go): uvarint/zigzag integers, 8-byte little-endian floats,
// length-prefixed strings and slices, and sparse float slices.
//
//	body = [kind byte][2B little-endian field mask][uvarint Seq][fields]
//
// The mask has one bit per Record field after Kind and Seq, in the
// order of the record* constants below. A field is present, and its
// value follows in bit order, exactly when it is non-zero: a non-zero
// number (by bits, so -0 is kept), a non-empty string or slice, a
// non-nil State. Every Kind uses the same layout, so no field a writer
// sets can be dropped, and a record round-trips bit for bit. Takes (and LeaseState.Takes)
// are sparse: an allocation takes from the few principals in the
// requester's agreement component, not from every principal.
const (
	recordPrincipal = 1 << iota
	recordName
	recordCapacity
	recordAvailable
	recordFrom
	recordTo
	recordFraction
	recordQuantity
	recordTicket
	recordLease
	recordTakes
	recordExpires
	recordParentLease
	recordAmount
	recordSnapshot
	recordState
)

// ErrBadRecord marks a frame that passes its length and CRC checks but
// whose body does not decode as a record, or whose Seq does not
// increase. Such a frame was written whole, so it is not a torn tail:
// the log is from another format or is damaged, and truncating it
// would silently drop every record from that point on.
var ErrBadRecord = errors.New("store: CRC-valid frame is not a valid record")

// appendRecord appends rec's binary body to dst.
func appendRecord(dst []byte, rec *Record) []byte {
	dst = append(dst, byte(rec.Kind), 0, 0) // mask filled in below
	maskAt := len(dst) - 2
	dst = transport.AppendUvarint(dst, rec.Seq)
	var mask uint16
	if rec.Principal != 0 {
		mask |= recordPrincipal
		dst = transport.AppendInt(dst, int64(rec.Principal))
	}
	if rec.Name != "" {
		mask |= recordName
		dst = transport.AppendString(dst, rec.Name)
	}
	if nonzero(rec.Capacity) {
		mask |= recordCapacity
		dst = transport.AppendFloat64(dst, rec.Capacity)
	}
	if nonzero(rec.Available) {
		mask |= recordAvailable
		dst = transport.AppendFloat64(dst, rec.Available)
	}
	if rec.From != 0 {
		mask |= recordFrom
		dst = transport.AppendInt(dst, int64(rec.From))
	}
	if rec.To != 0 {
		mask |= recordTo
		dst = transport.AppendInt(dst, int64(rec.To))
	}
	if nonzero(rec.Fraction) {
		mask |= recordFraction
		dst = transport.AppendFloat64(dst, rec.Fraction)
	}
	if nonzero(rec.Quantity) {
		mask |= recordQuantity
		dst = transport.AppendFloat64(dst, rec.Quantity)
	}
	if rec.Ticket != 0 {
		mask |= recordTicket
		dst = transport.AppendInt(dst, int64(rec.Ticket))
	}
	if rec.Lease != 0 {
		mask |= recordLease
		dst = transport.AppendInt(dst, int64(rec.Lease))
	}
	if len(rec.Takes) > 0 {
		mask |= recordTakes
		dst = transport.AppendSparseFloat64s(dst, rec.Takes)
	}
	if rec.Expires != 0 {
		mask |= recordExpires
		dst = transport.AppendInt(dst, rec.Expires)
	}
	if rec.ParentLease != 0 {
		mask |= recordParentLease
		dst = transport.AppendInt(dst, int64(rec.ParentLease))
	}
	if nonzero(rec.Amount) {
		mask |= recordAmount
		dst = transport.AppendFloat64(dst, rec.Amount)
	}
	if len(rec.Snapshot) > 0 {
		mask |= recordSnapshot
		dst = transport.AppendString(dst, string(rec.Snapshot))
	}
	if rec.State != nil {
		mask |= recordState
		dst = appendState(dst, rec.State)
	}
	binary.LittleEndian.PutUint16(dst[maskAt:], mask)
	return dst
}

// nonzero reports whether x has any bit set: -0 counts, so it survives
// the round trip.
func nonzero(x float64) bool { return math.Float64bits(x) != 0 }

// appendState appends a compacted state image: each slice is
// count-prefixed, lease takes are sparse.
func appendState(dst []byte, st *State) []byte {
	dst = transport.AppendString(dst, string(st.Declared))
	dst = transport.AppendUvarint(dst, uint64(len(st.Names)))
	for _, name := range st.Names {
		dst = transport.AppendString(dst, name)
	}
	dst = transport.AppendFloat64s(dst, st.Reported)
	dst = transport.AppendFloat64s(dst, st.Avail)
	dst = transport.AppendUvarint(dst, uint64(len(st.Shares)))
	for _, sh := range st.Shares {
		dst = transport.AppendInt(dst, int64(sh.From))
		dst = transport.AppendInt(dst, int64(sh.To))
		dst = transport.AppendFloat64(dst, sh.Fraction)
		dst = transport.AppendFloat64(dst, sh.Quantity)
		revoked := uint64(0)
		if sh.Revoked {
			revoked = 1
		}
		dst = transport.AppendUvarint(dst, revoked)
	}
	dst = transport.AppendUvarint(dst, uint64(len(st.Leases)))
	for _, le := range st.Leases {
		dst = transport.AppendInt(dst, int64(le.Token))
		dst = transport.AppendSparseFloat64s(dst, le.Takes)
		dst = transport.AppendInt(dst, le.Expires)
		dst = transport.AppendInt(dst, int64(le.ParentLease))
	}
	dst = transport.AppendUvarint(dst, uint64(len(st.Borrows)))
	for _, b := range st.Borrows {
		dst = transport.AppendInt(dst, int64(b.ParentLease))
		dst = transport.AppendFloat64(dst, b.Amount)
	}
	return transport.AppendInt(dst, int64(st.NextLease))
}

// decodeRecord parses one record body. Any failure wraps ErrBadRecord.
func decodeRecord(body []byte) (*Record, error) {
	if len(body) < 3 {
		return nil, fmt.Errorf("%w: %d-byte body", ErrBadRecord, len(body))
	}
	rec := &Record{Kind: Kind(body[0])}
	if !rec.Kind.Valid() {
		return nil, fmt.Errorf("%w: unknown kind byte %#x", ErrBadRecord, body[0])
	}
	mask := binary.LittleEndian.Uint16(body[1:])
	d := transport.NewDec(body[3:])
	rec.Seq = d.Uvarint()
	if mask&recordPrincipal != 0 {
		rec.Principal = int(d.Int())
	}
	if mask&recordName != 0 {
		rec.Name = d.String()
	}
	if mask&recordCapacity != 0 {
		rec.Capacity = d.Float64()
	}
	if mask&recordAvailable != 0 {
		rec.Available = d.Float64()
	}
	if mask&recordFrom != 0 {
		rec.From = int(d.Int())
	}
	if mask&recordTo != 0 {
		rec.To = int(d.Int())
	}
	if mask&recordFraction != 0 {
		rec.Fraction = d.Float64()
	}
	if mask&recordQuantity != 0 {
		rec.Quantity = d.Float64()
	}
	if mask&recordTicket != 0 {
		rec.Ticket = int(d.Int())
	}
	if mask&recordLease != 0 {
		rec.Lease = int(d.Int())
	}
	if mask&recordTakes != 0 {
		rec.Takes = d.SparseFloat64s()
	}
	if mask&recordExpires != 0 {
		rec.Expires = d.Int()
	}
	if mask&recordParentLease != 0 {
		rec.ParentLease = int(d.Int())
	}
	if mask&recordAmount != 0 {
		rec.Amount = d.Float64()
	}
	if mask&recordSnapshot != 0 {
		rec.Snapshot = []byte(d.String())
	}
	if mask&recordState != 0 {
		rec.State = decodeState(d, len(body))
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("%w: %s record: %w", ErrBadRecord, rec.Kind, err)
	}
	return rec, nil
}

// decodeState reads an appendState image; errors latch in d. Slice
// preallocation is capped by the body size, since every element takes
// at least one byte.
func decodeState(d *transport.Dec, size int) *State {
	st := &State{}
	if declared := d.String(); declared != "" {
		st.Declared = []byte(declared)
	}
	if n := d.Uvarint(); n > 0 && d.Err() == nil {
		st.Names = make([]string, 0, min(n, uint64(size)))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			st.Names = append(st.Names, d.String())
		}
	}
	st.Reported = d.Float64s()
	st.Avail = d.Float64s()
	if n := d.Uvarint(); n > 0 && d.Err() == nil {
		st.Shares = make([]ShareState, 0, min(n, uint64(size)))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			st.Shares = append(st.Shares, ShareState{
				From: int(d.Int()), To: int(d.Int()),
				Fraction: d.Float64(), Quantity: d.Float64(),
				Revoked: d.Uvarint() == 1,
			})
		}
	}
	if n := d.Uvarint(); n > 0 && d.Err() == nil {
		st.Leases = make([]LeaseState, 0, min(n, uint64(size)))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			st.Leases = append(st.Leases, LeaseState{
				Token: int(d.Int()), Takes: d.SparseFloat64s(),
				Expires: d.Int(), ParentLease: int(d.Int()),
			})
		}
	}
	if n := d.Uvarint(); n > 0 && d.Err() == nil {
		st.Borrows = make([]BorrowState, 0, min(n, uint64(size)))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			st.Borrows = append(st.Borrows, BorrowState{ParentLease: int(d.Int()), Amount: d.Float64()})
		}
	}
	st.NextLease = int(d.Int())
	return st
}

package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// On-disk framing: every record is one frame of
//
//	[4B little-endian payload length][4B CRC-32 (IEEE) of payload][payload]
//
// where the payload is the record's binary body (record.go). The CRC
// catches torn or bit-rotted frames; a short header or payload marks
// the point a crash truncated the file. Opening the log scans frames by
// length and CRC only, plus each body's leading kind byte, and
// truncates the file back to the end of the last intact frame so later
// appends never follow garbage. Replay decodes each record once. A
// frame that passes its CRC but does not decode is not a torn tail: it
// was written whole, so both open and replay return an ErrBadRecord
// error and truncate nothing.
const (
	frameHeaderSize = 8
	// maxFramePayload bounds one record's encoded size; a length field
	// beyond it is treated as corruption, not an allocation request.
	maxFramePayload = 16 << 20
)

const (
	walName  = "wal.log"
	snapName = "snapshot.wal"
	tmpName  = "snapshot.tmp"
)

// FileLog is a file-backed Log: an append-only WAL file plus a
// compacted snapshot file, both under one directory. Every Append is
// written through to the OS (one write syscall — it survives a killed
// process, which is the crash recovery defends against); Sync fsyncs
// for power-loss durability (the GRM syncs on shutdown and after
// compaction, trading per-record fsync latency for the paper's
// soft-state tolerance — LRM reports refresh availability anyway).
type FileLog struct {
	dir string

	mu   sync.Mutex
	wal  *os.File
	bw   *bufio.Writer
	buf  []byte // frame encoding scratch, reused under mu
	open bool
}

// OpenFileLog opens (creating if needed) the log directory. The WAL
// tail is scanned by frame length and CRC and truncated back to its
// last intact frame, so a file torn by a crash is safe to append to
// immediately. A CRC-valid frame whose kind byte is unknown (a WAL of
// the older JSON format, say) is an ErrBadRecord error.
func OpenFileLog(dir string) (*FileLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	// A crash between writing snapshot.tmp and renaming it leaves a tmp
	// file that was never activated; drop it.
	os.Remove(filepath.Join(dir, tmpName))
	walPath := filepath.Join(dir, walName)
	valid, err := scanFile(walPath, func(payload []byte, off int64) error {
		if !Kind(payload[0]).Valid() {
			return fmt.Errorf("store: %s: frame at offset %d: %w: unknown kind byte %#x", walPath, off, ErrBadRecord, payload[0])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", walPath, err)
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: truncate %s to %d: %w", walPath, valid, err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: seek %s: %w", walPath, err)
	}
	return &FileLog{dir: dir, wal: f, bw: bufio.NewWriter(f), open: true}, nil
}

// Dir returns the log directory.
func (fl *FileLog) Dir() string { return fl.dir }

// Append encodes rec as one frame at the WAL tail and writes it through
// to the OS, so a killed process loses nothing; call Sync to force it
// to stable storage.
func (fl *FileLog) Append(rec *Record) error {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if !fl.open {
		return fmt.Errorf("store: append to closed log")
	}
	frame, err := appendFrame(fl.buf[:0], rec)
	if err != nil {
		return err
	}
	fl.buf = frame
	if _, err := fl.bw.Write(frame); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if err := fl.bw.Flush(); err != nil {
		return fmt.Errorf("store: append flush: %w", err)
	}
	return nil
}

// Replay feeds fn the snapshot's state record (if present) followed by
// every tail record newer than the snapshot's fold point. Buffered
// appends are flushed first so the replay sees them.
func (fl *FileLog) Replay(fn func(*Record) error) error {
	fl.mu.Lock()
	if fl.open {
		if err := fl.bw.Flush(); err != nil {
			fl.mu.Unlock()
			return fmt.Errorf("store: flush before replay: %w", err)
		}
	}
	fl.mu.Unlock()

	var foldSeq uint64
	snapPath := filepath.Join(fl.dir, snapName)
	if _, err := os.Stat(snapPath); err == nil {
		err := replayFile(snapPath, func(rec *Record) error {
			foldSeq = max(foldSeq, rec.Seq)
			return fn(rec)
		})
		if err != nil {
			return err
		}
	}
	return replayFile(filepath.Join(fl.dir, walName), func(rec *Record) error {
		if rec.Seq <= foldSeq {
			// Already folded into the snapshot: a crash between the
			// snapshot rename and the WAL truncate leaves such records.
			return nil
		}
		return fn(rec)
	})
}

// Compact atomically replaces the log's contents with the single state
// record: the snapshot is written to a temp file, fsynced, renamed over
// the old snapshot, and only then is the WAL truncated. A crash at any
// point leaves a log that replays to the same state.
func (fl *FileLog) Compact(state *Record) error {
	if state.Kind != KindState {
		return fmt.Errorf("store: Compact with %v record, want state", state.Kind)
	}
	frame, err := appendFrame(nil, state)
	if err != nil {
		return err
	}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if !fl.open {
		return fmt.Errorf("store: compact closed log")
	}
	tmp := filepath.Join(fl.dir, tmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return fmt.Errorf("store: compact write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: compact sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: compact close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(fl.dir, snapName)); err != nil {
		return fmt.Errorf("store: compact rename: %w", err)
	}
	// The snapshot is durable; the WAL tail it folded in can go.
	fl.bw.Reset(fl.wal)
	if err := fl.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: compact truncate: %w", err)
	}
	if _, err := fl.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: compact seek: %w", err)
	}
	return nil
}

// Sync flushes buffered appends and fsyncs the WAL.
func (fl *FileLog) Sync() error {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if !fl.open {
		return nil
	}
	if err := fl.bw.Flush(); err != nil {
		return fmt.Errorf("store: sync flush: %w", err)
	}
	if err := fl.wal.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	return nil
}

// Close syncs and closes the WAL file. Further appends fail.
func (fl *FileLog) Close() error {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if !fl.open {
		return nil
	}
	fl.open = false
	flushErr := fl.bw.Flush()
	syncErr := fl.wal.Sync()
	closeErr := fl.wal.Close()
	if flushErr != nil {
		return fmt.Errorf("store: close flush: %w", flushErr)
	}
	if syncErr != nil {
		return fmt.Errorf("store: close sync: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("store: close: %w", closeErr)
	}
	return nil
}

// appendFrame appends rec as one length+CRC framed binary body.
func appendFrame(dst []byte, rec *Record) ([]byte, error) {
	if !rec.Kind.Valid() {
		return nil, fmt.Errorf("store: encode record with invalid kind %d", uint8(rec.Kind))
	}
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderSize)...)
	dst = appendRecord(dst, rec)
	payload := dst[start+frameHeaderSize:]
	if len(payload) > maxFramePayload {
		return nil, fmt.Errorf("store: record payload %d bytes exceeds frame limit", len(payload))
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst, nil
}

// scanFrames reads frames from r until EOF or the first frame that
// fails the length or CRC check (short header, empty, oversized or
// short payload, CRC mismatch), calling fn with each intact payload and
// its frame's byte offset; the payload is valid only during the call.
// It returns the intact prefix's byte length. A failed check is a stop
// condition, never an error — recovery resumes from the last intact
// frame. The errors are a non-EOF read failure of the stream called
// name, and fn's own, returned as is.
func scanFrames(r io.Reader, name string, fn func(payload []byte, off int64) error) (validLen int64, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var header [frameHeaderSize]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, header[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return validLen, nil
			}
			return validLen, fmt.Errorf("store: %s: read frame header: %w", name, err)
		}
		n := binary.LittleEndian.Uint32(header[0:4])
		if n == 0 || n > maxFramePayload {
			return validLen, nil
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return validLen, nil
			}
			return validLen, fmt.Errorf("store: %s: read frame payload: %w", name, err)
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(header[4:8]) {
			return validLen, nil
		}
		if err := fn(payload, validLen); err != nil {
			return validLen, err
		}
		validLen += int64(frameHeaderSize) + int64(n)
	}
}

// recordDecoder returns a scanFrames callback that decodes each frame's
// record and feeds it to fn. A CRC-valid frame that does not decode, or
// whose Seq does not exceed its predecessor's, is an ErrBadRecord error
// naming the stream and the frame's byte offset; fn's errors are
// returned as is.
func recordDecoder(name string, fn func(*Record) error) func(payload []byte, off int64) error {
	var lastSeq uint64
	first := true
	return func(payload []byte, off int64) error {
		rec, err := decodeRecord(payload)
		if err == nil && !first && rec.Seq <= lastSeq {
			err = fmt.Errorf("%w: seq %d after seq %d", ErrBadRecord, rec.Seq, lastSeq)
		}
		if err != nil {
			return fmt.Errorf("store: %s: frame at offset %d: %w", name, off, err)
		}
		first, lastSeq = false, rec.Seq
		return fn(rec)
	}
}

// DecodeRecords decodes every record of r's intact frames. It stops
// cleanly at EOF or at a torn or corrupt frame (see scanFrames) and
// returns the records before it and their byte length. A CRC-valid
// frame that is not a valid record is an error wrapping ErrBadRecord;
// the records before it are still returned.
func DecodeRecords(r io.Reader) (recs []*Record, validLen int64, err error) {
	validLen, err = scanFrames(r, "records", recordDecoder("records", func(rec *Record) error {
		recs = append(recs, rec)
		return nil
	}))
	return recs, validLen, err
}

// replayFile decodes the named file's records in order into fn.
func replayFile(path string, fn func(*Record) error) error {
	_, err := scanFile(path, recordDecoder(path, fn))
	return err
}

// scanFile runs scanFrames over the named file. A missing file is an
// empty log.
func scanFile(path string, fn func(payload []byte, off int64) error) (validLen int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("store: open %s: %w", path, err)
	}
	defer f.Close()
	return scanFrames(f, path, fn)
}

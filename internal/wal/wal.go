// Package wal implements the per-collection write-ahead log behind durable
// graphs: every acknowledged mutation batch is appended as one length-prefixed,
// CRC-checked record before the caller's write returns, and replayed on boot
// to reconstruct the batches that landed after the last checkpoint. The same
// frames, byte for byte, are what a leader ships to its followers: a
// replication tail body is a log header followed by frames, and ReadFrames
// decodes both.
//
// # File format
//
// A log file is an 8-byte header followed by records:
//
//	header:  magic "ACQW" | version u8 (1) | 3 reserved bytes
//	record:  payloadLen u32 | crc32c(payload) u32 | payload
//	payload: preVersion u64 | opCount u32 | ops
//	op:      kind u8 | int32 operands | (keyword ops) wordLen u16 | word bytes
//
// Everything is little-endian. preVersion is the graph's mutation version
// immediately before the batch applied; replay uses it to skip records whose
// effects a later snapshot already contains (a crash between the checkpoint
// rename and the old log's removal leaves such records behind) and to detect
// gaps. Only effective operations are logged — no-ops neither advance the
// version nor change state, so logging them would only skew the version
// arithmetic replay depends on.
//
// # Durability contract
//
// Append writes the whole record with one write(2) and, under SyncAlways,
// fsyncs before returning — an acknowledged batch then survives both process
// kill and machine crash. Under SyncNever the OS decides when pages reach the
// disk: a process kill still loses nothing (the page cache survives the
// process), only a machine crash can drop the tail. A torn tail — the partial
// record of an append that never returned — is detected by the length prefix
// and CRC on the next Open and truncated away: it was never acknowledged, so
// dropping it is correct, not lossy.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged batch survives a
	// machine crash. The default.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the OS: acknowledged batches survive a
	// process kill but a machine crash may drop the tail.
	SyncNever
)

// String returns the wire spelling used by flags and stats.
func (p SyncPolicy) String() string {
	if p == SyncNever {
		return "never"
	}
	return "always"
}

// ParseSyncPolicy parses the -fsync flag values "always" and "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	default:
		return SyncAlways, fmt.Errorf("wal: unknown sync policy %q (want always or never)", s)
	}
}

// Op kinds. They mirror the four acq mutation kinds; the package deliberately
// does not import acq (acq imports wal), so the mapping lives with the caller.
const (
	OpInsertEdge    uint8 = 1
	OpRemoveEdge    uint8 = 2
	OpAddKeyword    uint8 = 3
	OpRemoveKeyword uint8 = 4
)

// Op is one logged mutation. Edge kinds use U and V; keyword kinds use U (the
// vertex) and Word.
type Op struct {
	Kind uint8
	U, V int32
	Word string
}

// Record is one logged mutation batch: the ops that changed the graph,
// stamped with the graph version immediately before the first of them.
type Record struct {
	PreVersion uint64
	Ops        []Op
}

const (
	headerSize = 8
	// maxRecordBytes bounds one record's payload so a corrupt length prefix
	// cannot trigger a multi-gigabyte allocation during replay. 64 MiB fits
	// far beyond any real batch (the engine caps batches in the thousands).
	maxRecordBytes = 64 << 20
	// maxWordBytes bounds one keyword; matches the u16 length prefix.
	maxWordBytes = 1<<16 - 1
)

var magic = [4]byte{'A', 'C', 'Q', 'W'}

const formatVersion = 1

// castagnoli is the CRC-32C table (the usual checksum for storage formats,
// hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrBadFormat reports a log whose header is not a WAL header — as opposed to
// a torn tail, which Open repairs silently.
var ErrBadFormat = errors.New("wal: not a write-ahead log")

// Log is an open write-ahead log positioned for appending.
type Log struct {
	f      *os.File
	path   string
	policy SyncPolicy
	size   int64
	buf    []byte // append scratch, reused across records
}

// Create creates a new, empty log at path (truncating any existing file),
// fsyncing the file and its directory so the log survives a crash straight
// after creation.
func Create(path string, policy SyncPolicy) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(AppendHeader(nil)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(path); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, path: path, policy: policy, size: headerSize}, nil
}

// Open opens an existing log, replays every intact record through fn in file
// order, truncates a torn tail if one exists, and returns the log positioned
// for appending plus the number of records replayed. A replay error from fn
// aborts the open.
func Open(path string, policy SyncPolicy, fn func(Record) error) (*Log, int, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, err
	}
	end, n, err := ReadFrames(f, recordsOnly(fn))
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	if fi.Size() > end {
		// Torn tail: a record that never finished writing. It was never
		// acknowledged, so cutting it off restores the invariant that the log
		// is a prefix of acknowledged history.
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, 0, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, 0, err
		}
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, err
	}
	return &Log{f: f, path: path, policy: policy, size: end}, n, nil
}

// Replay reads the records of the log at path without opening it for
// appending — used for the rotated previous-generation log a crashed
// checkpoint left behind. A torn tail is skipped, not repaired.
func Replay(path string, fn func(Record) error) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	_, n, err := ReadFrames(f, recordsOnly(fn))
	return n, err
}

// recordsOnly adapts a record callback to ReadFrames.
func recordsOnly(fn func(Record) error) func(Record, []byte) error {
	if fn == nil {
		return nil
	}
	return func(rec Record, _ []byte) error { return fn(rec) }
}

// AppendHeader appends the 8-byte log header to b. Every log file and every
// replication tail body starts with it.
func AppendHeader(b []byte) []byte {
	b = append(b, magic[:]...)
	return append(b, formatVersion, 0, 0, 0)
}

// ReadFrames reads a log stream — the header, then records — from r and
// calls fn with each intact record and its exact frame bytes (length
// prefix, CRC and payload; the slice is reused once fn returns). It returns
// the offset just past the last intact frame and the frame count. A header
// that is not a WAL header is an error; damage after it — truncation, a
// corrupt length, a CRC mismatch, a malformed payload — ends the read at the
// last intact frame, the standard torn-tail rule. An error from fn aborts
// the read and is returned. Log files and replication tail bodies share this
// one decoder.
func ReadFrames(r io.Reader, fn func(rec Record, frame []byte) error) (end int64, n int, err error) {
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, fmt.Errorf("%w: reading header: %v", ErrBadFormat, err)
	}
	if [4]byte(hdr[:4]) != magic {
		return 0, 0, fmt.Errorf("%w: bad magic %q", ErrBadFormat, hdr[:4])
	}
	if hdr[4] != formatVersion {
		return 0, 0, fmt.Errorf("wal: unsupported format version %d", hdr[4])
	}
	end = headerSize
	// The buffer grows only as bytes actually arrive, so a corrupt length
	// prefix over a short input costs no large allocation.
	var buf bytes.Buffer
	for {
		buf.Reset()
		if _, err := io.CopyN(&buf, r, 8); err != nil {
			return end, n, nil // clean EOF or torn length prefix
		}
		length := binary.LittleEndian.Uint32(buf.Bytes()[:4])
		if length > maxRecordBytes {
			return end, n, nil // corrupt length: treat as tail damage
		}
		if _, err := io.CopyN(&buf, r, int64(length)); err != nil {
			return end, n, nil // torn payload
		}
		frame := buf.Bytes()
		if crc32.Checksum(frame[8:], castagnoli) != binary.LittleEndian.Uint32(frame[4:8]) {
			return end, n, nil // bit rot or torn write inside the payload
		}
		rec, ok := decodeRecord(frame[8:])
		if !ok {
			return end, n, nil
		}
		if fn != nil {
			if err := fn(rec, frame); err != nil {
				return end, n, err
			}
		}
		end += int64(len(frame))
		n++
	}
}

// decodeRecord parses one CRC-verified payload.
func decodeRecord(p []byte) (Record, bool) {
	if len(p) < 12 {
		return Record{}, false
	}
	rec := Record{PreVersion: binary.LittleEndian.Uint64(p[:8])}
	count := binary.LittleEndian.Uint32(p[8:12])
	p = p[12:]
	if uint64(count) > uint64(len(p))/7 {
		return Record{}, false // fewer bytes than count ops need (7 at least)
	}
	rec.Ops = make([]Op, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(p) < 1 {
			return Record{}, false
		}
		op := Op{Kind: p[0]}
		p = p[1:]
		switch op.Kind {
		case OpInsertEdge, OpRemoveEdge:
			if len(p) < 8 {
				return Record{}, false
			}
			op.U = int32(binary.LittleEndian.Uint32(p[:4]))
			op.V = int32(binary.LittleEndian.Uint32(p[4:8]))
			p = p[8:]
		case OpAddKeyword, OpRemoveKeyword:
			if len(p) < 6 {
				return Record{}, false
			}
			op.U = int32(binary.LittleEndian.Uint32(p[:4]))
			wl := int(binary.LittleEndian.Uint16(p[4:6]))
			p = p[6:]
			if len(p) < wl {
				return Record{}, false
			}
			op.Word = string(p[:wl])
			p = p[wl:]
		default:
			return Record{}, false
		}
		rec.Ops = append(rec.Ops, op)
	}
	if len(p) != 0 {
		return Record{}, false
	}
	return rec, true
}

// Append serialises rec, writes it with a single write call and — under
// SyncAlways — fsyncs before returning. The record is durable (to the policy's
// standard) once Append returns nil.
func (l *Log) Append(rec Record) error {
	var err error
	if l.buf, err = appendFrame(l.buf[:0], rec); err != nil {
		return err
	}
	if _, err := l.f.Write(l.buf); err != nil {
		return err
	}
	l.size += int64(len(l.buf))
	if l.policy == SyncAlways {
		return l.f.Sync()
	}
	return nil
}

// appendFrame appends rec's frame — length prefix, CRC and payload — to b.
// The encoding is canonical: decoding a frame and encoding the record again
// yields the same bytes.
func appendFrame(b []byte, rec Record) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0) // length + crc, patched below
	b = binary.LittleEndian.AppendUint64(b, rec.PreVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rec.Ops)))
	for _, op := range rec.Ops {
		b = append(b, op.Kind)
		switch op.Kind {
		case OpInsertEdge, OpRemoveEdge:
			b = binary.LittleEndian.AppendUint32(b, uint32(op.U))
			b = binary.LittleEndian.AppendUint32(b, uint32(op.V))
		case OpAddKeyword, OpRemoveKeyword:
			if len(op.Word) > maxWordBytes {
				return b[:start], fmt.Errorf("wal: keyword of %d bytes exceeds the record format's %d-byte limit", len(op.Word), maxWordBytes)
			}
			b = binary.LittleEndian.AppendUint32(b, uint32(op.U))
			b = binary.LittleEndian.AppendUint16(b, uint16(len(op.Word)))
			b = append(b, op.Word...)
		default:
			return b[:start], fmt.Errorf("wal: unknown op kind %d", op.Kind)
		}
	}
	frame := b[start:]
	payload := frame[8:]
	if len(payload) > maxRecordBytes {
		return b[:start], fmt.Errorf("wal: record of %d bytes exceeds the %d-byte limit", len(payload), maxRecordBytes)
	}
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	return b, nil
}

// Size returns the log's current size in bytes, header included.
func (l *Log) Size() int64 { return l.size }

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Sync flushes the log to stable storage regardless of policy.
func (l *Log) Sync() error { return l.f.Sync() }

// RenameInto moves the open log's backing file to newPath (atomically, via
// rename) and updates Path. The descriptor is untouched — appending
// continues seamlessly — which lets the checkpoint rotation keep only this
// metadata operation inside its critical section and do every blocking
// create/fsync/close outside it. Durability of the new name follows the
// caller's next SyncDir, exactly like Create's.
func (l *Log) RenameInto(newPath string) error {
	if err := os.Rename(l.path, newPath); err != nil {
		return err
	}
	l.path = newPath
	return nil
}

// Close flushes and closes the log file.
func (l *Log) Close() error {
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// syncDir fsyncs the directory containing path, making a just-created or
// just-renamed entry durable.
func syncDir(path string) error {
	dir := "."
	if i := lastSlash(path); i >= 0 {
		dir = path[:i+1]
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some filesystems reject fsync on directories; the rename itself is
	// still atomic there, so degrade silently rather than failing the write.
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}

func lastSlash(path string) int {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == os.PathSeparator {
			return i
		}
	}
	return -1
}

// SyncDir exposes the directory fsync for the checkpoint machinery (snapshot
// rename durability lives in the same package-level discipline as the log's).
func SyncDir(path string) error { return syncDir(path) }

package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testRecords() []Record {
	return []Record{
		{PreVersion: 0, Ops: []Op{
			{Kind: OpInsertEdge, U: 1, V: 2},
			{Kind: OpAddKeyword, U: 3, Word: "database"},
		}},
		{PreVersion: 2, Ops: []Op{
			{Kind: OpRemoveEdge, U: 1, V: 2},
		}},
		{PreVersion: 3, Ops: []Op{
			{Kind: OpRemoveKeyword, U: 3, Word: "database"},
			{Kind: OpAddKeyword, U: 4, Word: ""},
			{Kind: OpInsertEdge, U: 0, V: 7},
		}},
	}
}

func appendAll(t *testing.T, l *Log, recs []Record) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(path, SyncAlways)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	want := testRecords()
	appendAll(t, l, want)
	size := l.Size()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != size {
		t.Fatalf("Size() = %d, file is %d bytes", size, fi.Size())
	}

	var got []Record
	l2, n, err := Open(path, SyncNever, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l2.Close()
	if n != len(want) {
		t.Fatalf("Open replayed %d records, want %d", n, len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed records differ:\n got %+v\nwant %+v", got, want)
	}
	if l2.Size() != size {
		t.Fatalf("reopened Size() = %d, want %d", l2.Size(), size)
	}

	// Appending after reopen must extend, not clobber.
	extra := Record{PreVersion: 6, Ops: []Op{{Kind: OpInsertEdge, U: 9, V: 10}}}
	if err := l2.Append(extra); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	got = got[:0]
	n, err = Replay(path, func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if n != len(want)+1 || !reflect.DeepEqual(got[len(want)], extra) {
		t.Fatalf("after reopen+append got %d records %+v", n, got)
	}
}

func TestTornTailTruncated(t *testing.T) {
	// Cutting the file at every byte boundary inside the last record must
	// always recover the first two records and truncate the damage.
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	appendAll(t, l, recs[:2])
	intact := l.Size()
	appendAll(t, l, recs[2:])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := intact + 1; cut < int64(len(full)); cut++ {
		p := filepath.Join(t.TempDir(), "torn.log")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var n int
		l2, replayed, err := Open(p, SyncNever, func(Record) error { n++; return nil })
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		if replayed != 2 || n != 2 {
			t.Fatalf("cut=%d: replayed %d records, want 2", cut, replayed)
		}
		if l2.Size() != intact {
			t.Fatalf("cut=%d: Size() = %d, want %d", cut, l2.Size(), intact)
		}
		// The torn bytes must be gone so the next append starts clean.
		if fi, _ := os.Stat(p); fi.Size() != intact {
			t.Fatalf("cut=%d: file still %d bytes after truncation", cut, fi.Size())
		}
		l2.Close()
	}
}

func TestCorruptPayloadStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the second record's payload.
	off := headerSize
	rec1Len := binary.LittleEndian.Uint32(data[off:])
	off += 8 + int(rec1Len) // past record 1
	data[off+8+2] ^= 0xff   // inside record 2's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var n int
	_, replayed, err := Open(path, SyncNever, func(Record) error { n++; return nil })
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if replayed != 1 || n != 1 {
		t.Fatalf("replayed %d records past a CRC failure, want 1", replayed)
	}
}

func TestBadHeaderRejected(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string][]byte{
		"empty":     {},
		"short":     []byte("ACQ"),
		"bad-magic": []byte("NOPE\x01\x00\x00\x00"),
		"bad-ver":   append(bytes.Clone(magic[:]), 99, 0, 0, 0),
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(p, SyncNever, nil); err == nil {
			t.Errorf("%s: Open accepted a non-WAL file", name)
		}
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"": SyncAlways, "always": SyncAlways, "never": SyncNever} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted an unknown policy")
	}
	if SyncAlways.String() != "always" || SyncNever.String() != "never" {
		t.Error("SyncPolicy.String round-trip broken")
	}
}

func TestReplayErrorAborts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(path, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, testRecords())
	l.Close()
	wantErr := os.ErrClosed // any sentinel
	_, _, err = Open(path, SyncNever, func(Record) error { return wantErr })
	if err != wantErr {
		t.Fatalf("Open returned %v, want the replay callback's error", err)
	}
}

// FuzzReadFrames drives the frame decoder that recovery and replication
// share with arbitrary bytes — a follower runs it on whatever a leader
// sends. The committed corpus (testdata/fuzz/FuzzReadFrames) seeds a valid
// two-record stream, a torn last frame, a flipped CRC byte, a keyword length
// that overruns its frame, a bad magic, and an op count of 2³²−1 in a frame
// whose CRC holds (a preallocation bomb). The decoder must not panic, must
// not claim bytes past the input, and every record it accepts must encode
// back to exactly the frame it came from.
func FuzzReadFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var frames int64
		end, n, err := ReadFrames(bytes.NewReader(data), func(rec Record, frame []byte) error {
			again, err := appendFrame(nil, rec)
			if err != nil {
				t.Fatalf("decoded record does not encode: %v", err)
			}
			if !bytes.Equal(again, frame) {
				t.Fatalf("record re-encodes to\n%x\nnot its frame\n%x", again, frame)
			}
			frames += int64(len(frame))
			return nil
		})
		if err != nil {
			if end != 0 || n != 0 {
				t.Fatalf("header error %v after end %d, %d frames", err, end, n)
			}
			return
		}
		if end > int64(len(data)) || end != headerSize+frames {
			t.Fatalf("end %d for %d input bytes and %d frame bytes", end, len(data), frames)
		}
	})
}

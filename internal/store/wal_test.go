package store

// WAL mechanics outside the crash matrix: append/replay round trips,
// rotation, sync policies, compaction boundaries, the journal, and the
// KV payload codec.

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
)

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	want := matrixRecords()
	for i, r := range want {
		idx, err := l.Append(r.Type, r.Data)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if idx != uint64(i) {
			t.Fatalf("append %d landed at index %d", i, idx)
		}
	}
	if l.NextIndex() != uint64(len(want)) {
		t.Fatalf("next index %d, want %d", l.NextIndex(), len(want))
	}
	var got []Record
	if err := l.Replay(func(r Record) error {
		got = append(got, Record{Index: r.Index, Type: r.Type, Data: append([]byte(nil), r.Data...)})
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	checkPrefix(t, got, want, len(want))
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Reopen: SyncNever still closes durable via Close's fsync.
	l2, got2 := recoverAll(t, dir)
	defer l2.Close()
	checkPrefix(t, got2, want, len(want))
}

func TestRotationKeepsIndicesContiguous(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	const n = 50
	for i := 0; i < n; i++ {
		idx, err := l.Append(1, bytes.Repeat([]byte{byte(i)}, 20))
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		if idx != uint64(i) {
			t.Fatalf("index %d, want %d", idx, i)
		}
	}
	if l.SegmentCount() < 3 {
		t.Fatalf("no rotation happened: %d segments", l.SegmentCount())
	}
	next := uint64(0)
	if err := l.Replay(func(r Record) error {
		if r.Index != next {
			return fmt.Errorf("replay index %d, want %d", r.Index, next)
		}
		next++
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if next != n {
		t.Fatalf("replayed %d records, want %d", next, n)
	}
}

// TestSegmentPassesReuseOneBuffer: recovery and replay read segments
// through one reused buffer, so a pass over a 4-segment log allocates
// about one segment's worth, not the sum of all four.
func TestSegmentPassesReuseOneBuffer(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNever, SegmentBytes: 256 << 10})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	payload := bytes.Repeat([]byte{0xab}, 60<<10)
	for l.SegmentCount() < 4 || l.active.count < 4 {
		if _, err := l.Append(1, payload); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	largest := int64(0)
	for _, s := range segs {
		st, err := os.Stat(s.path)
		if err != nil {
			t.Fatal(err)
		}
		largest = max(largest, st.Size())
	}
	if len(segs) != 4 {
		t.Fatalf("built %d segments, want 4", len(segs))
	}
	limit := uint64(2 * largest)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, err = OpenLog(dir, Options{Sync: SyncNever, SegmentBytes: 256 << 10})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= limit {
		t.Fatalf("recovering 4 segments allocated %d bytes, want < %d (2x the largest segment)", alloc, limit)
	}

	records := 0
	runtime.ReadMemStats(&before)
	err = l.Replay(func(r Record) error {
		if !bytes.Equal(r.Data, payload) {
			return fmt.Errorf("record %d: payload mismatch", r.Index)
		}
		records++
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if records != 16 {
		t.Fatalf("replayed %d records, want 16", records)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= limit {
		t.Fatalf("replaying 4 segments allocated %d bytes, want < %d (2x the largest segment)", alloc, limit)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	// A record larger than a segment still appends (segments always
	// accept at least one record)...
	if _, err := l.Append(1, make([]byte, 5<<20)); err != nil {
		t.Fatalf("large append: %v", err)
	}
	// ...but one past MaxRecordBytes is refused outright.
	if _, err := l.Append(1, make([]byte, MaxRecordBytes+1)); err == nil {
		t.Fatalf("append past MaxRecordBytes succeeded")
	}
}

func TestSyncIntervalPolicy(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncInterval, SyncEvery: 4})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(1, []byte("interval")); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	l2, got := recoverAll(t, dir)
	defer l2.Close()
	if len(got) != 10 {
		t.Fatalf("recovered %d records, want 10", len(got))
	}
}

func TestClosedLogRefusesWork(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, err := l.Append(1, []byte("x")); err == nil {
		t.Fatalf("append on closed log succeeded")
	}
	if err := l.Sync(); err == nil {
		t.Fatalf("sync on closed log succeeded")
	}
	if _, err := l.Rotate(); err == nil {
		t.Fatalf("rotate on closed log succeeded")
	}
}

func TestCompactNeverRemovesActive(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{Sync: SyncNever, SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		if _, err := l.Append(1, []byte("live")); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	removed, err := l.Compact(l.NextIndex())
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if removed != 0 {
		t.Fatalf("compaction removed the active segment")
	}
	var n int
	l.Replay(func(Record) error { n++; return nil })
	if n != 5 {
		t.Fatalf("records lost to compaction: %d of 5", n)
	}
}

func TestStoreOpenAndJournal(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	j := st.Journal(9, "search-a")
	other := st.Journal(9, "search-b")
	if _, ok, err := j.Latest(); err != nil || ok {
		t.Fatalf("latest on empty journal: ok=%v err=%v", ok, err)
	}
	for lvl := 1; lvl <= 3; lvl++ {
		if err := j.SaveProgress(lvl, []byte(fmt.Sprintf("ckpt-%d", lvl))); err != nil {
			t.Fatalf("save: %v", err)
		}
	}
	if err := other.SaveProgress(1, []byte("other")); err != nil {
		t.Fatalf("save other: %v", err)
	}
	cp, ok, err := j.Latest()
	if err != nil || !ok || string(cp) != "ckpt-3" {
		t.Fatalf("latest = %q ok=%v err=%v, want ckpt-3", cp, ok, err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The journal survives reopening the store.
	st2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer st2.Close()
	cp, ok, err = st2.Journal(9, "search-a").Latest()
	if err != nil || !ok || string(cp) != "ckpt-3" {
		t.Fatalf("latest after reopen = %q ok=%v err=%v", cp, ok, err)
	}
}

func TestOpenStoreRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Fatalf("open with empty dir succeeded")
	}
}

func TestKVCodec(t *testing.T) {
	cases := []struct {
		key   string
		value []byte
	}{
		{"", nil},
		{"k", []byte("v")},
		{"plan|fig10|7", bytes.Repeat([]byte{0x00, 0xff}, 300)},
	}
	for _, c := range cases {
		k, v, err := DecodeKV(EncodeKV(c.key, c.value))
		if err != nil {
			t.Fatalf("decode(%q): %v", c.key, err)
		}
		if k != c.key || !bytes.Equal(v, c.value) {
			t.Fatalf("kv round trip (%q, %d bytes) -> (%q, %d bytes)", c.key, len(c.value), k, len(v))
		}
	}
	if _, _, err := DecodeKV([]byte{5}); err == nil {
		t.Fatalf("short kv payload decoded")
	}
	if _, _, err := DecodeKV([]byte{10, 0, 'a'}); err == nil {
		t.Fatalf("kv payload with overlong key length decoded")
	}
}

package journal

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var updateFuzzCorpus = flag.Bool("update-fuzz-corpus", false, "rewrite the testdata/fuzz/FuzzJournalRecover seed corpus from the live writer")

// TestWriteFuzzCorpus regenerates the checked-in seed corpus (run with
// -update-fuzz-corpus after changing the frame format). Plain `go test`
// replays the corpus as regression cases; `go test -fuzz` starts from it.
func TestWriteFuzzCorpus(t *testing.T) {
	if !*updateFuzzCorpus {
		t.Skip("corpus regeneration runs only with -update-fuzz-corpus")
	}
	_, valid, ends := writeJournal(t, t.TempDir(), []byte("fuzz-header"), testRecords(3))
	flip := func(at int64) []byte {
		b := bytes.Clone(valid)
		b[at] ^= 0x40
		return b
	}
	headerEnd := int64(frameOverhead + len("fuzz-header"))
	oversize := append(valid[:headerEnd:headerEnd], 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 'x')
	entries := map[string][]byte{
		"seed_valid":         valid,
		"seed_header_only":   valid[:headerEnd],
		"seed_torn_header":   valid[:5],
		"seed_torn_prefix":   valid[:ends[0]+3],
		"seed_torn_payload":  valid[:ends[1]+frameOverhead+5],
		"seed_torn_last":     valid[:ends[2]-1],
		"seed_interior_crc":  flip(ends[0] + frameOverhead + 2),
		"seed_tail_crc":      flip(ends[2] - 1),
		"seed_interior_len":  flip(ends[0] + 3),
		"seed_oversize_len":  oversize,
		"seed_empty":         {},
		"seed_empty_payload": append(bytes.Clone(valid), 0, 0, 0, 0, 0, 0, 0, 0),
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzJournalRecover")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range entries {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzJournalRecover hands Recover arbitrary bytes as a journal file. A
// journal is read back after a crash, so any byte string may be on disk:
// Recover must fail with a *CorruptError (leaving the file as found) or
// succeed, never panic. After a success the file is a prefix of the input,
// a second Recover replays the same header and records without truncating
// anything further, and an Append followed by Recover yields exactly one
// more record.
func FuzzJournalRecover(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		header, recs, err := recover2(t, path)
		if err != nil {
			if !IsCorrupt(err) {
				t.Fatalf("Recover failed with %T %v, want *CorruptError", err, err)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
				t.Fatalf("refused recovery changed the file")
			}
			return
		}
		healed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, healed) {
			t.Fatalf("recovered file (%d bytes) is not a prefix of the input (%d bytes)", len(healed), len(data))
		}

		header2, recs2, err := recover2(t, path)
		if err != nil {
			t.Fatalf("second Recover: %v", err)
		}
		if again, _ := os.ReadFile(path); !bytes.Equal(again, healed) {
			t.Fatalf("second Recover changed the file: %d bytes, was %d", len(again), len(healed))
		}
		if !bytes.Equal(header2, header) || !sameRecords(recs2, recs) {
			t.Fatalf("second Recover replayed %d records under header %q, first %d under %q",
				len(recs2), header2, len(recs), header)
		}

		j, err := Recover(path, nil, nil, Options{SyncInterval: -1})
		if err != nil {
			t.Fatalf("reopen for append: %v", err)
		}
		extra := []byte("appended-after-recovery")
		if err := j.Append(extra); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		header3, recs3, err := recover2(t, path)
		if err != nil {
			t.Fatalf("Recover after Append: %v", err)
		}
		if !bytes.Equal(header3, header) || len(recs3) != len(recs)+1 ||
			!sameRecords(recs3[:len(recs)], recs) || !bytes.Equal(recs3[len(recs)], extra) {
			t.Fatalf("after Append: %d records under %q, want the %d recovered plus %q", len(recs3), header3, len(recs), extra)
		}
	})
}

func sameRecords(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	msgs := []*Message{
		{Kind: KindHello, Hello: &Hello{
			Worker: 7, Spec: json.RawMessage(`{"name":"x","scenarios":[]}`),
			Quick: true, Root: 42,
			HeartbeatMS: 250, Chaos: ChaosSpec{Seed: 3, KillAfter: 2, StallPct: 25},
		}},
		{Kind: KindLease, Lease: &Lease{ID: 2, Start: 10, End: 20, Skip: []int{11, 13}}},
		{Kind: KindResult, LeaseID: 2, Slot: 12, Seed: 0xdeadbeefcafe,
			Metrics: map[string]float64{"ok": 1, "maxLB": 17.5}, TrialErr: "boom"},
		{Kind: KindLeaseDone, LeaseID: 2},
		{Kind: KindHeartbeat},
		{Kind: KindShutdown},
	}
	for _, m := range msgs {
		if err := fw.Write(m); err != nil {
			t.Fatalf("write %s: %v", m.Kind, err)
		}
	}
	fr := NewFrameReader(&buf)
	for i, want := range msgs {
		got, err := fr.Read()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(got)
		if !bytes.Equal(wb, gb) {
			t.Errorf("frame %d: got %s, want %s", i, gb, wb)
		}
	}
	if _, err := fr.Read(); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestFrameReaderTruncation(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.Write(&Message{Kind: KindHeartbeat}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	// Mid-prefix and mid-body truncations are loud errors, never io.EOF.
	for _, cut := range []int{1, 3, len(whole) - 1} {
		fr := NewFrameReader(bytes.NewReader(whole[:cut]))
		if _, err := fr.Read(); err == nil || err == io.EOF {
			t.Errorf("cut at %d: err = %v, want truncation error", cut, err)
		}
	}
}

func TestFrameReaderRejectsOversizeAndJunk(t *testing.T) {
	var huge [frameHeader]byte
	binary.BigEndian.PutUint32(huge[0:4], MaxFrame+1)
	if _, err := NewFrameReader(bytes.NewReader(huge[:])).Read(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversize frame: err = %v, want limit error", err)
	}

	frame := func(body string) []byte {
		var b bytes.Buffer
		var prefix [frameHeader]byte
		binary.BigEndian.PutUint32(prefix[0:4], uint32(len(body)))
		binary.BigEndian.PutUint32(prefix[4:8], crc32.ChecksumIEEE([]byte(body)))
		b.Write(prefix[:])
		b.WriteString(body)
		return b.Bytes()
	}
	if _, err := NewFrameReader(bytes.NewReader(frame("not json"))).Read(); err == nil {
		t.Error("junk body: want parse error")
	}
	if _, err := NewFrameReader(bytes.NewReader(frame(`{"slot":3}`))).Read(); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Errorf("kindless frame: err = %v, want kind error", err)
	}
}

// TestFrameReaderDetectsCorruption: a body that does not match its CRC is
// the typed integrity error, both from a raw bit-flip and from the writer's
// chaos corruption hook.
func TestFrameReaderDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.Write(&Message{Kind: KindResult, LeaseID: 1, Slot: 3, Seed: 42, Metrics: map[string]float64{"rounds": 17}}); err != nil {
		t.Fatal(err)
	}
	wire := append([]byte(nil), buf.Bytes()...)
	for _, pos := range []int{frameHeader, frameHeader + 5, len(wire) - 1} {
		mut := append([]byte(nil), wire...)
		mut[pos] ^= 0x01
		_, err := NewFrameReader(bytes.NewReader(mut)).Read()
		var ce *FrameCorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("flip at %d: err = %v, want *FrameCorruptError", pos, err)
		}
	}

	// The chaos hook corrupts exactly one frame; the next is intact again.
	buf.Reset()
	fw = NewFrameWriter(&buf)
	fw.CorruptNext()
	if err := fw.Write(&Message{Kind: KindHeartbeat}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Write(&Message{Kind: KindShutdown}); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf)
	_, err := fr.Read()
	var ce *FrameCorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("corrupted frame: err = %v, want *FrameCorruptError", err)
	}
	// The reader consumed the full corrupted frame, so the stream is still
	// aligned; the follow-up frame decodes (real peers drop the connection
	// instead, but alignment is what makes the test deterministic).
	m, err := fr.Read()
	if err != nil || m.Kind != KindShutdown {
		t.Fatalf("frame after corruption: %v, %v (want shutdown)", m, err)
	}
}

// TestFrameWriterConcurrent exercises the writer under the race detector the
// way a worker does: heartbeats and results interleaving on one pipe.
func TestFrameWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	var wg sync.WaitGroup
	const perG, gs = 50, 4
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := fw.Write(&Message{Kind: KindResult, Slot: g*perG + i}); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	fr := NewFrameReader(&buf)
	seen := map[int]bool{}
	for i := 0; i < perG*gs; i++ {
		m, err := fr.Read()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if seen[m.Slot] {
			t.Fatalf("slot %d read twice", m.Slot)
		}
		seen[m.Slot] = true
	}
}

package packet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestPcapRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewPcapWriter(&buf)
	frames := [][]byte{
		NewUDPFrame(ParseIP4(10, 0, 0, 1), ParseIP4(10, 0, 5, 6), 1, 2, 32).Serialize(),
		NewTCPFrame(1, 2, 3, 4, FlagSYN).Serialize(),
		NewEchoFrame(MAC{1}, MAC{2}, -9).Serialize(),
	}
	stamps := []uint64{0, 1_500_000_123, 3_000_000_000_000}
	for i, f := range frames {
		if err := w.WriteFrame(stamps[i], f); err != nil {
			t.Fatal(err)
		}
	}

	r := NewPcapReader(bytes.NewReader(buf.Bytes()))
	for i := range frames {
		ts, frame, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if ts != stamps[i] {
			t.Fatalf("frame %d: ts %d, want %d", i, ts, stamps[i])
		}
		if !bytes.Equal(frame, frames[i]) {
			t.Fatalf("frame %d corrupted", i)
		}
		if _, err := Parse(frame); err != nil {
			t.Fatalf("frame %d unparseable after round trip: %v", i, err)
		}
	}
	if _, _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestPcapReadsMicrosecondCaptures(t *testing.T) {
	// Hand-build a classic µs-resolution capture.
	var buf bytes.Buffer
	var gh [24]byte
	binary.LittleEndian.PutUint32(gh[0:4], 0xa1b2c3d4)
	binary.LittleEndian.PutUint16(gh[4:6], 2)
	binary.LittleEndian.PutUint16(gh[6:8], 4)
	binary.LittleEndian.PutUint32(gh[16:20], 65535)
	binary.LittleEndian.PutUint32(gh[20:24], 1)
	buf.Write(gh[:])
	frame := NewUDPFrame(1, 2, 3, 4, 8).Serialize()
	var ph [16]byte
	binary.LittleEndian.PutUint32(ph[0:4], 7)   // 7 s
	binary.LittleEndian.PutUint32(ph[4:8], 250) // 250 µs
	binary.LittleEndian.PutUint32(ph[8:12], uint32(len(frame)))
	binary.LittleEndian.PutUint32(ph[12:16], uint32(len(frame)))
	buf.Write(ph[:])
	buf.Write(frame)

	r := NewPcapReader(&buf)
	ts, got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ts != 7*1e9+250*1e3 {
		t.Fatalf("ts = %d", ts)
	}
	if !bytes.Equal(got, frame) {
		t.Fatal("frame corrupted")
	}
}

func TestPcapRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": bytes.Repeat([]byte{0x42}, 24),
		"short body": func() []byte {
			var buf bytes.Buffer
			w := NewPcapWriter(&buf)
			if err := w.WriteFrame(0, []byte{1, 2, 3, 4}); err != nil {
				t.Fatal(err)
			}
			b := buf.Bytes()
			return b[:len(b)-2]
		}(),
	}
	for name, data := range cases {
		r := NewPcapReader(bytes.NewReader(data))
		if _, _, err := r.Next(); !errors.Is(err, ErrBadPcap) {
			t.Errorf("%s: err = %v, want ErrBadPcap", name, err)
		}
	}
}

func TestPcapRejectsNonEthernet(t *testing.T) {
	var gh [24]byte
	binary.LittleEndian.PutUint32(gh[0:4], 0xa1b23c4d)
	binary.LittleEndian.PutUint32(gh[20:24], 101) // raw IP link type
	r := NewPcapReader(bytes.NewReader(gh[:]))
	if _, _, err := r.Next(); !errors.Is(err, ErrBadPcap) {
		t.Fatalf("err = %v", err)
	}
}

func TestPcapInsanePacketLength(t *testing.T) {
	var buf bytes.Buffer
	w := NewPcapWriter(&buf)
	if err := w.WriteFrame(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Corrupt the included length to something absurd.
	binary.LittleEndian.PutUint32(b[24+8:24+12], 1<<24)
	r := NewPcapReader(bytes.NewReader(b))
	if _, _, err := r.Next(); !errors.Is(err, ErrBadPcap) {
		t.Fatalf("err = %v", err)
	}
}

// TestPcapWriterRefusesOverSnaplen: the writer states a 65535-byte snaplen,
// so it refuses a longer frame rather than write a record its own reader
// rejects.
func TestPcapWriterRefusesOverSnaplen(t *testing.T) {
	var buf bytes.Buffer
	w := NewPcapWriter(&buf)
	if err := w.WriteFrame(0, make([]byte, pcapDefaultSnap+1)); !errors.Is(err, ErrBadPcap) {
		t.Fatalf("err = %v, want ErrBadPcap", err)
	}
	if err := w.WriteFrame(0, make([]byte, pcapDefaultSnap)); err != nil {
		t.Fatal(err)
	}
	if _, frame, err := NewPcapReader(&buf).Next(); err != nil || len(frame) != pcapDefaultSnap {
		t.Fatalf("snaplen-sized frame: %d bytes, err %v", len(frame), err)
	}
}

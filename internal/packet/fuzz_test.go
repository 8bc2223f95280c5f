package packet

import (
	"bytes"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the parser: it must never panic, and
// whatever parses successfully must re-serialize to something that parses to
// the same structure (the headers; payload boundaries are normative).
func FuzzParse(f *testing.F) {
	f.Add(NewUDPFrame(ParseIP4(10, 0, 0, 1), ParseIP4(10, 0, 5, 6), 1, 2, 32).Serialize())
	f.Add(NewTCPFrame(1, 2, 3, 4, FlagSYN).Serialize())
	f.Add(NewEchoFrame(MAC{1}, MAC{2}, -7).Serialize())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		q, err := Parse(p.Serialize())
		if err != nil {
			t.Fatalf("round trip failed to parse: %v", err)
		}
		if q.Eth.Type != p.Eth.Type || q.HasIPv4 != p.HasIPv4 ||
			q.HasTCP != p.HasTCP || q.HasUDP != p.HasUDP {
			t.Fatalf("round trip changed structure: %+v vs %+v", p, q)
		}
		if p.HasIPv4 && (q.IPv4.Src != p.IPv4.Src || q.IPv4.Dst != p.IPv4.Dst || q.IPv4.Proto != p.IPv4.Proto) {
			t.Fatal("round trip changed IPv4 addressing")
		}
	})
}

// FuzzPcapReader feeds arbitrary bytes to the capture reader: Next must
// never panic or loop — every frame it returns consumed its 16-byte record
// header, so a capture of n bytes yields fewer than n/16 frames — and every
// frame must be exactly the record header's included length, no longer than
// the global header's snaplen or the reader's sanity bound.
func FuzzPcapReader(f *testing.F) {
	var good bytes.Buffer
	w := NewPcapWriter(&good)
	for i, frame := range [][]byte{
		NewUDPFrame(ParseIP4(10, 0, 0, 1), ParseIP4(10, 0, 5, 6), 1, 2, 32).Serialize(),
		NewTCPFrame(1, 2, 3, 4, FlagSYN).Serialize(),
		{},
	} {
		if err := w.WriteFrame(uint64(i)*1e9+7, frame); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()-3])
	f.Add(good.Bytes()[:pcapGlobalHdrLen])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xa1}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewPcapReader(bytes.NewReader(data))
		off := pcapGlobalHdrLen
		for n := 0; ; n++ {
			if n > len(data)/pcapPacketHdrLen {
				t.Fatalf("%d frames from %d bytes: Next is not consuming its input", n, len(data))
			}
			_, frame, err := r.Next()
			if err != nil {
				return
			}
			if off+pcapPacketHdrLen+len(frame) > len(data) {
				t.Fatalf("frame %d: %d bytes at offset %d overrun the %d-byte input", n, len(frame), off, len(data))
			}
			incl := r.order.Uint32(data[off+8 : off+12])
			snap := r.order.Uint32(data[16:20])
			if uint32(len(frame)) != incl {
				t.Fatalf("frame %d: %d bytes, record header says %d", n, len(frame), incl)
			}
			if len(frame) > maxSanePacketSize || (snap != 0 && uint32(len(frame)) > snap) {
				t.Fatalf("frame %d: %d bytes exceeds snaplen %d or the %d-byte bound", n, len(frame), snap, maxSanePacketSize)
			}
			off += pcapPacketHdrLen + len(frame)
		}
	})
}

package ingest

import (
	"bytes"
	"testing"

	"stat4/internal/packet"
)

// FuzzServeConn feeds arbitrary bytes to the frame-stream decoder, the
// input a network client controls. ServeConn must never panic, and once the
// engine has drained, every record it reported reading is either consumed by
// the datapath or counted as shed: consumed + shed == offered. The plane is
// tiny (4 KiB blocks, a 4-deep ring) so oversized frames and full-ring
// sheds are in play.
func FuzzServeConn(f *testing.F) {
	var stream bytes.Buffer
	for i, frame := range testFrames(6) {
		if err := WriteRecord(&stream, uint64(i+1), uint16(i), frame); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(stream.Bytes())
	f.Add(stream.Bytes()[:stream.Len()-5]) // truncated frame body
	f.Add(stream.Bytes()[:9])              // truncated record header
	var big bytes.Buffer
	if err := WriteRecord(&big, 1, 1, make([]byte, 5000)); err != nil { // larger than a block
		f.Fatal(err)
	}
	f.Add(big.Bytes())
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0xff, 0xff, 0xff, 0xff}) // length past MaxFrameLen
	f.Add(packet.NewUDPFrame(1, 2, 3, 4, 0).Serialize())
	f.Fuzz(func(t *testing.T, data []byte) {
		sr := newBoundRuntime(t, 2, 1)
		defer sr.Close()
		e := New(sr, Config{RingCap: 4, SlabBlocks: 4, BlockSize: 4096, BatchFrames: 8})
		offered, _ := e.ServeConn(bytes.NewReader(data))
		e.Stop()
		_, shed := e.Shed()
		if e.Frames()+shed != offered {
			t.Fatalf("consumed %d + shed %d != offered %d", e.Frames(), shed, offered)
		}
		if in := e.Stats().Switch.PktsIn; in != e.Frames() {
			t.Fatalf("datapath saw %d frames, engine consumed %d", in, e.Frames())
		}
	})
}

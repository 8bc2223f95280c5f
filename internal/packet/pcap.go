package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file reads and writes nanosecond-resolution pcap files (the classic
// libpcap format, magic 0xa1b23c4d), so traffic streams can be captured for
// reproducibility and real captures can be replayed through the switch
// simulator (cmd/stat4-replay).

const (
	pcapMagicNs       = 0xa1b23c4d // nanosecond timestamps
	pcapMagicUs       = 0xa1b2c3d4 // microsecond timestamps
	pcapVersionMajor  = 2
	pcapVersionMinor  = 4
	pcapLinkEthernet  = 1
	pcapGlobalHdrLen  = 24
	pcapPacketHdrLen  = 16
	pcapDefaultSnap   = 65535
	maxSanePacketSize = 1 << 20
)

// ErrBadPcap is returned for malformed capture files.
var ErrBadPcap = errors.New("packet: malformed pcap")

// PcapWriter writes Ethernet frames to a nanosecond pcap stream.
type PcapWriter struct {
	w      io.Writer
	header bool
}

// NewPcapWriter returns a writer targeting w. The global header is emitted
// with the first packet.
func NewPcapWriter(w io.Writer) *PcapWriter { return &PcapWriter{w: w} }

// WriteFrame appends one frame with the given timestamp (virtual ns). A
// frame longer than the capture's 65535-byte snaplen is refused with
// ErrBadPcap: no reader would accept the record.
func (pw *PcapWriter) WriteFrame(tsNs uint64, frame []byte) error {
	if len(frame) > pcapDefaultSnap {
		return fmt.Errorf("%w: frame length %d exceeds snaplen %d", ErrBadPcap, len(frame), pcapDefaultSnap)
	}
	if !pw.header {
		var h [pcapGlobalHdrLen]byte
		binary.LittleEndian.PutUint32(h[0:4], pcapMagicNs)
		binary.LittleEndian.PutUint16(h[4:6], pcapVersionMajor)
		binary.LittleEndian.PutUint16(h[6:8], pcapVersionMinor)
		// thiszone and sigfigs stay zero.
		binary.LittleEndian.PutUint32(h[16:20], pcapDefaultSnap)
		binary.LittleEndian.PutUint32(h[20:24], pcapLinkEthernet)
		if _, err := pw.w.Write(h[:]); err != nil {
			return err
		}
		pw.header = true
	}
	var h [pcapPacketHdrLen]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(tsNs/1e9))
	binary.LittleEndian.PutUint32(h[4:8], uint32(tsNs%1e9))
	binary.LittleEndian.PutUint32(h[8:12], uint32(len(frame)))
	binary.LittleEndian.PutUint32(h[12:16], uint32(len(frame)))
	if _, err := pw.w.Write(h[:]); err != nil {
		return err
	}
	_, err := pw.w.Write(frame)
	return err
}

// PcapReader iterates a pcap stream. It accepts both nanosecond and
// microsecond captures (timestamps are normalised to nanoseconds) in either
// byte order.
type PcapReader struct {
	r       io.Reader
	order   binary.ByteOrder
	nanos   bool
	snap    uint32 // the global header's snaplen; 0 means unstated
	started bool
}

// NewPcapReader returns a reader over r.
func NewPcapReader(r io.Reader) *PcapReader { return &PcapReader{r: r} }

func (pr *PcapReader) readHeader() error {
	var h [pcapGlobalHdrLen]byte
	if _, err := io.ReadFull(pr.r, h[:]); err != nil {
		return fmt.Errorf("%w: global header: %v", ErrBadPcap, err)
	}
	magicLE := binary.LittleEndian.Uint32(h[0:4])
	magicBE := binary.BigEndian.Uint32(h[0:4])
	switch {
	case magicLE == pcapMagicNs:
		pr.order, pr.nanos = binary.LittleEndian, true
	case magicLE == pcapMagicUs:
		pr.order, pr.nanos = binary.LittleEndian, false
	case magicBE == pcapMagicNs:
		pr.order, pr.nanos = binary.BigEndian, true
	case magicBE == pcapMagicUs:
		pr.order, pr.nanos = binary.BigEndian, false
	default:
		return fmt.Errorf("%w: magic %#x", ErrBadPcap, magicLE)
	}
	if link := pr.order.Uint32(h[20:24]); link != pcapLinkEthernet {
		return fmt.Errorf("%w: link type %d (want Ethernet)", ErrBadPcap, link)
	}
	pr.snap = pr.order.Uint32(h[16:20])
	pr.started = true
	return nil
}

// Next returns the next frame and its timestamp in nanoseconds, or io.EOF at
// the end of the capture. A record longer than the capture's snaplen (when
// the global header states one) or than 1 MiB is malformed: Next returns
// ErrBadPcap before allocating its body.
func (pr *PcapReader) Next() (tsNs uint64, frame []byte, err error) {
	if !pr.started {
		if err := pr.readHeader(); err != nil {
			return 0, nil, err
		}
	}
	var h [pcapPacketHdrLen]byte
	if _, err := io.ReadFull(pr.r, h[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: packet header: %v", ErrBadPcap, err)
	}
	sec := uint64(pr.order.Uint32(h[0:4]))
	frac := uint64(pr.order.Uint32(h[4:8]))
	if pr.nanos {
		tsNs = sec*1e9 + frac
	} else {
		tsNs = sec*1e9 + frac*1e3
	}
	incl := pr.order.Uint32(h[8:12])
	if incl > maxSanePacketSize || (pr.snap != 0 && incl > pr.snap) {
		return 0, nil, fmt.Errorf("%w: packet length %d (snaplen %d)", ErrBadPcap, incl, pr.snap)
	}
	frame = make([]byte, incl)
	if _, err := io.ReadFull(pr.r, frame); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated packet body: %v", ErrBadPcap, err)
	}
	return tsNs, frame, nil
}

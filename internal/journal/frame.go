package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Record framing: every payload is stored as
//
//	[4B little-endian length][4B CRC-32C of payload][payload]
//
// The frame is the durability unit. A reader walks frames in order and
// stops at the first one it cannot trust: a torn tail (fewer bytes than
// the header or length promise), an implausible length, or a CRC
// mismatch. Nothing after a damaged frame is ever returned — a bit flip
// mid-log costs the suffix, never a silent skip.

// frameOverhead is the fixed per-record framing cost in bytes.
const frameOverhead = 8

// crcTable is the Castagnoli polynomial table (CRC-32C, the checksum
// used by most storage formats for its error-detection properties).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frame wraps a payload in its length+CRC header.
func frame(payload []byte) []byte {
	out := make([]byte, 0, frameOverhead+len(payload))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
	return append(out, payload...)
}

// readFrames parses consecutive frames out of data. It returns the valid
// payloads and a damage description — empty when data ends exactly at a
// frame boundary.
func readFrames(data []byte) (payloads [][]byte, damage string) {
	off := 0
	for off < len(data) {
		rest := len(data) - off
		if rest < frameOverhead {
			return payloads, fmt.Sprintf("torn frame header: %d trailing bytes at offset %d", rest, off)
		}
		n := binary.LittleEndian.Uint32(data[off:])
		want := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxLen {
			return payloads, fmt.Sprintf("implausible record length %d at offset %d", n, off)
		}
		if rest < frameOverhead+int(n) {
			return payloads, fmt.Sprintf("torn record: length %d but only %d bytes remain at offset %d", n, rest-frameOverhead, off)
		}
		payload := data[off+frameOverhead : off+frameOverhead+int(n)]
		if got := crc32.Checksum(payload, crcTable); got != want {
			return payloads, fmt.Sprintf("CRC mismatch at offset %d: stored %08x, computed %08x", off, want, got)
		}
		payloads = append(payloads, payload)
		off += frameOverhead + int(n)
	}
	return payloads, ""
}

// frameEnd returns the byte offset just past the first n trusted frames
// of data, the cut that keeps exactly n writes.
func frameEnd(data []byte, n int) (int, error) {
	payloads, _ := readFrames(data)
	if n > len(payloads) {
		return 0, fmt.Errorf("journal: truncate to %d writes, only %d valid", n, len(payloads))
	}
	off := 0
	for _, p := range payloads[:n] {
		off += frameOverhead + len(p)
	}
	return off, nil
}

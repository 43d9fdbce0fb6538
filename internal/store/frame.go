package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The typed errors of both file formats. Every failure of
// ReadSessionSnapshot wraps exactly one of them, and so does every header
// failure of Replay (record-level damage in a journal is never an error), so
// callers can branch with errors.Is and fuzzing can prove the decoders'
// error surface is closed.
var (
	// ErrBadMagic reports a stream that is not a VADA snapshot or journal.
	ErrBadMagic = errors.New("store: bad magic")

	// ErrBadVersion reports a file written by an unknown format version.
	ErrBadVersion = errors.New("store: unsupported format version")

	// ErrTruncated reports a stream that ends mid-structure.
	ErrTruncated = errors.New("store: truncated")

	// ErrChecksum reports a frame whose payload fails its CRC.
	ErrChecksum = errors.New("store: checksum mismatch")

	// ErrTooLarge reports a frame whose declared length exceeds
	// maxFrameBytes.
	ErrTooLarge = errors.New("store: frame too large")

	// ErrBadSnapshot reports a structurally-valid envelope whose contents do
	// not form a session snapshot: unknown, duplicate or missing sections,
	// or section payloads that fail to decode.
	ErrBadSnapshot = errors.New("store: bad snapshot")
)

// formatV1 is the format version of both files. A change that breaks the
// golden fixtures under testdata bumps it rather than silently stranding old
// files.
const formatV1 byte = 1

// maxFrameBytes caps one frame's declared payload length. The reader
// additionally allocates only in proportion to the bytes actually present,
// so a hostile length prefix cannot force a large allocation on a short
// stream.
const maxFrameBytes = 1 << 28

// The magics identify the two files; they never change across versions.
var (
	snapshotMagic = [8]byte{'V', 'A', 'D', 'A', 'S', 'N', 'A', 'P'}
	journalMagic  = [8]byte{'V', 'A', 'D', 'A', 'J', 'R', 'N', 'L'}
)

// headerLen is the byte length of either file's header: magic and version.
const headerLen = int64(len(snapshotMagic) + 1)

// header is a file's first bytes.
func header(magic [8]byte) []byte { return append(magic[:], formatV1) }

// readHeader consumes and checks a file's header.
func readHeader(r io.Reader, magic [8]byte) error {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("%w: reading header: %w", ErrTruncated, err)
	}
	if !bytes.Equal(hdr[:len(magic)], magic[:]) {
		return fmt.Errorf("%w: %q", ErrBadMagic, hdr[:len(magic)])
	}
	if v := hdr[len(magic)]; v != formatV1 {
		return fmt.Errorf("%w: %d (supported: %d)", ErrBadVersion, v, formatV1)
	}
	return nil
}

// appendFrame appends one framed payload — kind | u32 length | payload |
// CRC-32(payload) — the unit of a snapshot's sections and of a journal's
// records. encode appends the payload to the slice it is given, in place,
// after the frame's header.
func appendFrame(b []byte, kind byte, encode func([]byte) ([]byte, error)) ([]byte, error) {
	start := len(b)
	b, err := encode(append(b, kind, 0, 0, 0, 0))
	if err != nil {
		return nil, err
	}
	payload := b[start+5:]
	if len(payload) > maxFrameBytes {
		return nil, fmt.Errorf("%w: frame 0x%02x is %d bytes (max %d)",
			ErrTooLarge, kind, len(payload), maxFrameBytes)
	}
	binary.BigEndian.PutUint32(b[start+1:], uint32(len(payload)))
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(payload)), nil
}

// readFrameBody reads a frame's length, payload and checksum, after the
// kind byte has been consumed. It allocates only in proportion to the bytes
// actually present, so truncated streams with hostile length prefixes stay
// cheap.
func readFrameBody(r io.Reader, kind byte) ([]byte, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return nil, fmt.Errorf("%w: reading frame length: %w", ErrTruncated, err)
	}
	length := binary.BigEndian.Uint32(lenb[:])
	if length > maxFrameBytes {
		return nil, fmt.Errorf("%w: frame 0x%02x declares %d bytes (max %d)",
			ErrTooLarge, kind, length, maxFrameBytes)
	}
	var payload bytes.Buffer
	if _, err := io.CopyN(&payload, r, int64(length)); err != nil {
		return nil, fmt.Errorf("%w: reading frame payload: %w", ErrTruncated, err)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(r, crcb[:]); err != nil {
		return nil, fmt.Errorf("%w: reading frame checksum: %w", ErrTruncated, err)
	}
	if got := crc32.ChecksumIEEE(payload.Bytes()); got != binary.BigEndian.Uint32(crcb[:]) {
		return nil, fmt.Errorf("%w: frame 0x%02x", ErrChecksum, kind)
	}
	return payload.Bytes(), nil
}

// Package journal is the incremental half of the durability subsystem: a
// per-session, append-only write-ahead journal that records what changed —
// one framed record per completed stage or terminal run — so that making a
// session durable costs O(delta) instead of rewriting the whole snapshot
// envelope every time a run completes.
//
// On disk a journal is a sibling of the session's snapshot:
//
//	<data-dir>/<id>.vsnap     last full snapshot (persist envelope, format v1)
//	<data-dir>/<id>.vjournal  mutations since that snapshot (this package)
//
// The journal file is an 8-byte magic and a format-version byte, followed
// by records in the same frame wire form as the envelope's sections —
// kind | u32 length | JSON payload | CRC-32(payload) — and every record is
// fsynced before it is acknowledged. An append is two steps, write and wait
// (see Writer.AppendCommit): one fsync covers every record written before
// it, so a caller that writes several records before waiting on any of them
// — a multi-stage plan — pays for one. Recovery composes the snapshot with a
// replay of the journal's valid prefix: a torn tail (the record being
// appended when the power went) is truncated, not fatal, and a compaction
// pass folds the journal back into a fresh snapshot and resets it to empty.
//
// Lifecycle:
//
//	append (per stage / terminal run)
//	   └─ thresholds reached (records, bytes) or evict/shutdown
//	       └─ compact: write fresh .vsnap, truncate .vjournal
//	           └─ crash between the two? replay is convergent: records the
//	              snapshot already folded in are skipped by sequence/ID.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"vada/internal/feedback"
	"vada/internal/kb"
	"vada/internal/metrics"
	"vada/internal/persist"
	"vada/internal/runs"
	"vada/internal/session"
)

// Journal header errors. Record-level damage is never an error — replay
// falls back to the last valid prefix — but a file whose header is wrong
// was never a journal, and pretending otherwise would silently discard it.
var (
	// ErrBadMagic reports a file that is not a VADA journal at all.
	ErrBadMagic = errors.New("journal: bad magic")

	// ErrBadVersion reports a journal written by an unknown format version.
	ErrBadVersion = errors.New("journal: unsupported format version")
)

// FormatV1 is the current journal format version.
const FormatV1 byte = 1

// magic identifies a journal file; it never changes across versions.
var magic = [8]byte{'V', 'A', 'D', 'A', 'J', 'R', 'N', 'L'}

// HeaderLen is the byte length of the journal header (magic + version).
const HeaderLen = int64(len(magic) + 1)

// Record kinds of the v1 journal layout.
const (
	kindStage byte = 0x01
	kindRun   byte = 0x02
)

// StageRecord is the mutation payload of one completed wrangling stage:
// the typed event (oracle score included) and the knowledge-base delta the
// stage produced — everything RestoreSession needs that a bare event would
// not carry.
type StageRecord struct {
	// Event is the stage event, Seq assigned.
	Event session.Event `json:"event"`
	// Delta is the knowledge-base mutation log of the stage.
	Delta *kb.Delta `json:"delta,omitempty"`

	// Legacy, read and never written: records of older binaries carried the
	// feedback items the stage added (FeedbackAt the index of the first in the
	// append-only store, so Compose can skip exactly the overlap with items a
	// mid-stage compaction snapshot already held) and the change fingerprints
	// after the stage, beside a delta that did not hold them. Compose folds
	// them into the legacy fields of persist.Meta.
	Feedback   []feedback.Item   `json:"feedback,omitempty"`
	FeedbackAt int               `json:"feedback_at,omitempty"`
	ExecHashes map[string]uint64 `json:"exec_hashes,omitempty"`
	FusedHash  uint64            `json:"fused_hash,omitempty"`
}

// Record is one journal entry. Exactly one of Stage and Run is set,
// matching the record's frame kind.
type Record struct {
	// Seq numbers records within one journal file, from 1, with no gaps;
	// replay stops at the first sequence break (damage, not format skew).
	Seq uint64 `json:"seq"`
	// At is when the record was appended.
	At time.Time `json:"at"`
	// Stage is the payload of a stage record.
	Stage *StageRecord `json:"stage,omitempty"`
	// Run is the terminal run snapshot of a run record.
	Run *runs.Run `json:"run,omitempty"`
}

// ReplayResult is what reading a journal yields: the records of the valid
// prefix, where that prefix ends, and whether anything after it had to be
// discarded.
type ReplayResult struct {
	// Records are the valid records, oldest first.
	Records []Record
	// Valid is the byte offset at which the valid prefix ends — the length
	// a recovering writer truncates the file to.
	Valid int64
	// Damaged reports that bytes after Valid failed to parse: a torn tail
	// from a crash mid-append, or corruption. Recovery keeps the prefix.
	Damaged bool
}

// Replay reads a journal stream. Header problems (not a journal at all,
// unknown version, header torn) are errors wrapping the package sentinels;
// from the first record onwards every problem — truncation, checksum
// mismatch, an undecodable payload, an unknown record kind, a sequence
// break — ends the replay at the last valid record instead of failing,
// because the append-only write path makes a damaged suffix expected
// (kill -9 mid-append) while a damaged header means the file was never
// written by this code. Hostile input cannot panic the reader or make it
// allocate beyond the bytes actually presented.
func Replay(r io.Reader) (*ReplayResult, error) {
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: reading header: %w", persist.ErrTruncated, err)
	}
	if !bytes.Equal(hdr[:8], magic[:]) {
		return nil, fmt.Errorf("%w: %q", ErrBadMagic, hdr[:8])
	}
	if hdr[8] != FormatV1 {
		return nil, fmt.Errorf("%w: %d (supported: %d)", ErrBadVersion, hdr[8], FormatV1)
	}
	res := &ReplayResult{Valid: HeaderLen}
	cr := &countingReader{r: r}
	for {
		kind, payload, err := persist.ReadFrame(cr)
		if err == io.EOF {
			return res, nil // clean end at a record boundary
		}
		if err != nil {
			res.Damaged = true
			return res, nil
		}
		rec, ok := decodeRecord(kind, payload)
		if !ok || rec.Seq != uint64(len(res.Records))+1 {
			res.Damaged = true
			return res, nil
		}
		res.Records = append(res.Records, rec)
		res.Valid = HeaderLen + cr.n
	}
}

// decodeRecord validates one frame: the payload must be a well-formed
// record whose populated side matches the frame kind.
func decodeRecord(kind byte, payload []byte) (Record, bool) {
	var rec Record
	dec := json.NewDecoder(bytes.NewReader(payload))
	if err := dec.Decode(&rec); err != nil {
		return Record{}, false
	}
	if _, err := dec.Token(); err != io.EOF {
		return Record{}, false
	}
	switch kind {
	case kindStage:
		return rec, rec.Stage != nil && rec.Run == nil
	case kindRun:
		return rec, rec.Run != nil && rec.Stage == nil
	}
	return Record{}, false
}

// countingReader tracks how many bytes of the underlying stream have been
// consumed, so replay can report where the valid prefix ends.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Writer appends records to one session's journal file. A record is
// acknowledged only once an fsync issued after its write has returned — the
// durability point, whose cost is proportional to the records it covers, not
// to the session. Writes and fsyncs both run under the writer lock, so file
// offsets and sequence numbers stay ordered and an fsync covers exactly the
// records written before it.
type Writer struct {
	mu   sync.Mutex
	f    *os.File
	path string
	reg  *metrics.Registry

	// written is the journal as the file holds it, durable as the last
	// successful fsync left it; the two differ by the records whose waits
	// are outstanding.
	written, durable extent

	// epoch counts Resets: a wait issued in an earlier epoch is for a record
	// a compaction snapshot already holds.
	epoch  uint64
	closed bool
	// failed poisons the writer — after a failed fsync, whose unsynced
	// records are gone, or an append whose torn bytes could not be
	// truncated away — until a Reset discards the file's contents.
	failed bool
}

// extent is a journal length: the last sequence number, the record count
// and the record bytes after the header (all zero after a compaction).
type extent struct {
	seq     uint64
	records int
	bytes   int64
}

// SetMetrics instruments the writer: journal fsyncs are counted and timed
// (persist_fsync_total{path="journal"}, persist_fsync_seconds{path="journal"}),
// the record bytes they make durable accumulate in
// persist_journal_bytes_total, and each Reset — the post-compaction truncate
// — bumps persist_compactions_total. Safe to call at any time; the service
// registers every writer it opens or adopts.
func (w *Writer) SetMetrics(reg *metrics.Registry) {
	w.mu.Lock()
	w.reg = reg
	w.mu.Unlock()
}

// Open opens (creating if absent) the journal at path, recovers its valid
// prefix, truncates any damaged tail so subsequent appends extend a clean
// file, and returns the writer positioned at the end alongside the
// recovered records. A file whose header is unreadable fails with a typed
// error and is left untouched — the caller decides whether to quarantine
// it; Open never destroys bytes it cannot prove are a journal's.
func Open(path string) (*Writer, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	w := &Writer{f: f, path: path}
	if info.Size() == 0 {
		if err := w.writeHeader(); err != nil {
			f.Close()
			return nil, nil, err
		}
		return w, nil, nil
	}
	res, err := Replay(bufio.NewReader(io.NewSectionReader(f, 0, info.Size())))
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("recovering %s: %w", path, err)
	}
	if res.Damaged || res.Valid < info.Size() {
		if err := f.Truncate(res.Valid); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(res.Valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	w.written = extent{records: len(res.Records), bytes: res.Valid - HeaderLen}
	if n := len(res.Records); n > 0 {
		w.written.seq = res.Records[n-1].Seq
	}
	w.durable = w.written
	return w, res.Records, nil
}

// writeHeader writes and syncs the magic and version at offset 0.
func (w *Writer) writeHeader() error {
	if _, err := w.f.WriteAt(append(append([]byte(nil), magic[:]...), FormatV1), 0); err != nil {
		return fmt.Errorf("journal: writing header: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	_, err := w.f.Seek(HeaderLen, io.SeekStart)
	return err
}

// Append writes the record and blocks until it is durable: AppendCommit
// followed by its wait. When Append returns nil the record survives kill -9.
func (w *Writer) Append(rec *Record) error {
	wait, err := w.AppendCommit(rec)
	if err != nil {
		return err
	}
	return wait()
}

// AppendCommit splits an append into its two halves. The record is assigned
// the next sequence number, framed and written in a single write call, with
// no fsync; the returned wait makes it durable. The caller acknowledges the
// record only after wait returns nil. wait returns at once when an fsync
// issued for a later record (or by Close) already covers this one; otherwise
// it issues one fsync, which covers every record written so far — so the
// waits of several consecutive appends, invoked after the last of them, cost
// one fsync between them. wait is idempotent and may be invoked at any time,
// from any goroutine: after a Reset it returns nil (the compaction snapshot
// that preceded the Reset holds the record), after Close it returns the
// verdict of the fsync Close performed.
//
// A failed write rewinds the file to the pre-append offset, so a torn frame
// can never sit in the MIDDLE of the file ahead of later successful appends
// (Replay heals tails, not middles). A failed fsync rewinds to the last
// durable offset, fails the wait of every record past it and poisons the
// writer, as does a rewind that itself fails: further appends are refused,
// rather than silently stranded behind the damage, until a Reset.
func (w *Writer) AppendCommit(rec *Record) (wait func() error, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	frame, err := w.frameRecord(rec)
	if err != nil {
		return nil, err
	}
	if _, err := w.f.Write(frame.Bytes()); err != nil {
		w.rewindLocked(w.written.bytes)
		return nil, fmt.Errorf("journal: appending record: %w", err)
	}
	w.written.seq = rec.Seq
	w.written.records++
	w.written.bytes += int64(frame.Len())
	epoch, end := w.epoch, w.written.bytes
	return func() error { return w.waitDurable(epoch, end) }, nil
}

// frameRecord validates the record shape, assigns the next sequence number
// and encodes the wire frame. Callers hold w.mu.
func (w *Writer) frameRecord(rec *Record) (*bytes.Buffer, error) {
	if w.closed {
		return nil, fmt.Errorf("journal: writer closed")
	}
	if w.failed {
		return nil, fmt.Errorf("journal: writer failed (poisoned by earlier append failure)")
	}
	kind := kindStage
	switch {
	case rec.Stage != nil && rec.Run == nil:
	case rec.Run != nil && rec.Stage == nil:
		kind = kindRun
	default:
		return nil, fmt.Errorf("journal: record must carry exactly one of stage, run")
	}
	rec.Seq = w.written.seq + 1
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding record: %w", err)
	}
	var frame bytes.Buffer
	if err := persist.WriteFrame(&frame, kind, payload); err != nil {
		return nil, err
	}
	return &frame, nil
}

// waitDurable is the second half of AppendCommit for the record that ended
// at byte offset end (past the header) of the given epoch.
func (w *Writer) waitDurable(epoch uint64, end int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if epoch != w.epoch || end <= w.durable.bytes {
		return nil
	}
	if w.failed {
		return fmt.Errorf("journal: record discarded by a failed append or sync")
	}
	return w.syncLocked()
}

// syncLocked fsyncs the file, making every written record durable. On
// failure the unsynced records are truncated away and the writer poisoned:
// the kernel may already have dropped their dirty pages, so a later fsync
// reporting success would acknowledge bytes that never reached the disk.
// Callers hold w.mu.
func (w *Writer) syncLocked() error {
	t0 := time.Now()
	if err := w.f.Sync(); err != nil {
		w.rewindLocked(w.durable.bytes)
		w.written = w.durable
		w.failed = true
		return fmt.Errorf("journal: syncing record: %w", err)
	}
	if w.reg != nil {
		w.reg.Counter(metrics.Name("persist_fsync_total", "path", "journal")).Inc()
		w.reg.Histogram(metrics.Name("persist_fsync_seconds", "path", "journal"), nil).ObserveSince(t0)
		w.reg.Counter("persist_journal_bytes_total").Add(w.written.bytes - w.durable.bytes)
	}
	w.durable = w.written
	return nil
}

// rewindLocked truncates the file back to the given record-byte length.
// Failure to rewind poisons the writer. Callers hold w.mu.
func (w *Writer) rewindLocked(bytes int64) {
	off := HeaderLen + bytes
	if w.f.Truncate(off) != nil {
		w.failed = true
		return
	}
	if _, err := w.f.Seek(off, io.SeekStart); err != nil {
		w.failed = true
		return
	}
	w.f.Sync() // best-effort: the truncate is what restores the invariant
}

// Reset truncates the journal back to its header — the step that follows a
// successful compaction snapshot. Sequence numbering restarts at 1,
// outstanding waits resolve as durable (the snapshot holds their records),
// and a poisoned writer recovers: the truncate discards the damage along
// with everything else.
func (w *Writer) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("journal: writer closed")
	}
	if err := w.f.Truncate(HeaderLen); err != nil {
		return err
	}
	// The records are gone from the file: account for that now, and stay
	// poisoned until the empty journal is durable and positioned.
	w.written, w.durable = extent{}, extent{}
	w.epoch++
	w.failed = true
	if err := w.f.Sync(); err != nil {
		return err
	}
	if _, err := w.f.Seek(HeaderLen, io.SeekStart); err != nil {
		return err
	}
	w.failed = false
	if w.reg != nil {
		w.reg.Counter("persist_compactions_total").Inc()
	}
	return nil
}

// Stats reports the journal's current length and record bytes since the
// last compaction (or creation).
func (w *Writer) Stats() (records int, bytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.written.records, w.written.bytes
}

// Path returns the journal's file path.
func (w *Writer) Path() string { return w.path }

// Close makes every written record durable and closes the file; waits still
// outstanding then report that fsync's verdict. Further appends fail; Close
// is idempotent.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	var err error
	if !w.failed && w.durable != w.written {
		err = w.syncLocked()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"vada/internal/metrics"
	"vada/internal/runs"
	"vada/internal/session"
)

// Record kinds of the v1 journal layout. A journal this binary writes holds
// run records only; the other two kinds are an older binary's, read and
// never written (legacy.go).
const (
	kindStage byte = 0x01 // one stage and the knowledge-base delta it produced
	kindRun   byte = 0x02 // a terminal run alone
	kindAsked byte = 0x03 // a terminal run and what it was asked
)

// Record is one journal entry: exactly one of Stage and Run is set, and
// Asked with Run in a run record of today's layout, matching the record's
// frame kind.
type Record struct {
	// Seq numbers records within one journal file, from 1, with no gaps;
	// replay stops at the first sequence break (damage, not format skew).
	Seq uint64 `json:"seq"`
	// At is when the record was appended.
	At time.Time `json:"at"`
	// Stage is the payload of an older binary's stage record.
	Stage *StageRecord `json:"stage,omitempty"`
	// Run is the terminal run snapshot of a run record.
	Run *runs.Run `json:"run,omitempty"`
	// Asked is what the run was asked and what it left behind.
	Asked *Asked `json:"asked,omitempty"`
}

// Asked is the rest of a run record: the stage requests the run applied,
// which recovery replays through Stage.Apply, and what to check the replay
// against. The knowledge base is a function of them — every other input of a
// stage is derived from the scenario's seed and the knowledge base — so the
// record holds no effect of the run's.
type Asked struct {
	// Requests are the stage requests the run applied, in order, each as
	// session.Applied resolved it (a fetch as the ingest it applied).
	Requests []session.StageRequest `json:"requests,omitempty"`
	// Events are the stage events the run recorded, one per request, times
	// and durations as they were.
	Events []session.Event `json:"events,omitempty"`
	// Version is the knowledge base's version counter after the run.
	Version uint64 `json:"version"`
	// Digest is kb.KB.Digest of the content the run left behind.
	Digest uint64 `json:"digest"`
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
	if err := readHeader(r, journalMagic); err != nil {
		return nil, err
	}
	res := &ReplayResult{Valid: headerLen}
	cr := &countingReader{r: r}
	for {
		var kind [1]byte
		if _, err := io.ReadFull(cr, kind[:]); err == io.EOF {
			return res, nil // clean end at a record boundary
		} else if err != nil {
			res.Damaged = true
			return res, nil
		}
		payload, err := readFrameBody(cr, kind[0])
		if err != nil {
			res.Damaged = true
			return res, nil
		}
		rec, ok := decodeRecord(kind[0], payload)
		if !ok || rec.Seq != uint64(len(res.Records))+1 {
			res.Damaged = true
			return res, nil
		}
		res.Records = append(res.Records, rec)
		res.Valid = headerLen + cr.n
	}
}

// decodeRecord validates one frame: the payload must be a well-formed
// record whose populated fields match the frame kind.
func decodeRecord(kind byte, payload []byte) (Record, bool) {
	var rec Record
	if decodeJSON(payload, &rec) != nil || recordKind(&rec) != kind {
		return Record{}, false
	}
	return rec, true
}

// recordKind is the frame kind of a record by what it holds; 0 for a record
// that is none of them.
func recordKind(rec *Record) byte {
	switch {
	case rec.Stage != nil && rec.Run == nil && rec.Asked == nil:
		return kindStage
	case rec.Stage == nil && rec.Run != nil && rec.Asked == nil:
		return kindRun
	case rec.Stage == nil && rec.Run != nil && rec.Asked != nil:
		return kindAsked
	}
	return 0
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

// journal appends records to one session's journal file. A record is
// acknowledged only once the fsync that follows its write has returned — the
// durability point, whose cost is proportional to the record, not to the
// session. A journal is not safe for concurrent use: the store calls every
// method under the entry lock of the session that owns the file, so file
// offsets and sequence numbers stay ordered.
type journal struct {
	f *os.File
	// reg counts and times the fsyncs (persist_fsync_total{path="journal"},
	// persist_fsync_seconds{path="journal"}) and the record bytes they make
	// durable (persist_journal_bytes_total).
	reg *metrics.Registry

	// written is the journal as the file holds it, durable as the last
	// successful fsync left it; the two differ between an append and the
	// sync that follows it.
	written, durable extent

	closed bool
	// failed poisons the journal — after a failed fsync, whose unsynced
	// record is gone, or an append whose torn bytes could not be truncated
	// away — until a reset discards the file's contents.
	failed bool
}

// extent is a journal length: the last sequence number, the record count
// and the record bytes after the header (all zero after a compaction).
type extent struct {
	seq     uint64
	records int
	bytes   int64
}

// openJournal opens (creating if absent) the journal at path, recovers its
// valid prefix, truncates any damaged tail so subsequent appends extend a
// clean file, and returns the journal positioned at the end alongside what
// the replay found. A file whose header is unreadable fails with a typed
// error and is left untouched: openJournal never destroys bytes it cannot
// prove are a journal's.
func openJournal(path string, reg *metrics.Registry) (*journal, *ReplayResult, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	j := &journal{f: f, reg: reg}
	res, err := j.load(path)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	j.written = extent{records: len(res.Records), bytes: res.Valid - headerLen}
	if n := len(res.Records); n > 0 {
		j.written.seq = res.Records[n-1].Seq
	}
	j.durable = j.written
	return j, res, nil
}

// load is openJournal's file half: a new file gets its header, an
// existing one is replayed and cut back to its valid prefix; either way the
// file is left positioned at the end of that prefix.
func (j *journal) load(path string) (*ReplayResult, error) {
	info, err := j.f.Stat()
	if err != nil {
		return nil, err
	}
	res := &ReplayResult{Valid: headerLen}
	if info.Size() == 0 {
		if _, err := j.f.Write(header(journalMagic)); err != nil {
			return nil, fmt.Errorf("store: writing journal header: %w", err)
		}
		return res, j.f.Sync()
	}
	if res, err = Replay(bufio.NewReader(io.NewSectionReader(j.f, 0, info.Size()))); err != nil {
		return nil, fmt.Errorf("recovering %s: %w", path, err)
	}
	if res.Valid < info.Size() {
		if err := j.f.Truncate(res.Valid); err != nil {
			return nil, err
		}
		if err := j.f.Sync(); err != nil {
			return nil, err
		}
	}
	_, err = j.f.Seek(res.Valid, io.SeekStart)
	return res, err
}

// append writes the record as the journal's next: it is assigned the next
// sequence number, framed and written in a single write call. The sync that
// follows makes it durable; the caller acknowledges the record only after
// that has returned nil.
//
// A failed write rewinds the file to the pre-append offset, so a torn frame
// can never sit in the MIDDLE of the file ahead of later successful appends
// (Replay heals tails, not middles). A rewind that itself fails poisons the
// journal, as a failed fsync does: further appends are refused, rather than
// silently stranded behind the damage, until a reset.
func (j *journal) append(rec *Record) error {
	if j.closed || j.failed {
		return fmt.Errorf("store: journal closed or poisoned by an earlier failure")
	}
	if recordKind(rec) != kindAsked {
		return fmt.Errorf("store: a record carries a run and what it was asked")
	}
	rec.Seq = j.written.seq + 1
	frame, err := appendFrame(nil, kindAsked, func(b []byte) ([]byte, error) {
		data, err := json.Marshal(rec)
		return append(b, data...), err
	})
	if err != nil {
		return fmt.Errorf("store: encoding record: %w", err)
	}
	if _, err := j.f.Write(frame); err != nil {
		j.rewind(j.written.bytes)
		return fmt.Errorf("store: appending record: %w", err)
	}
	j.written.seq = rec.Seq
	j.written.records++
	j.written.bytes += int64(len(frame))
	return nil
}

// sync fsyncs the file, making the appended record durable. On failure the
// unsynced record is truncated away and the journal poisoned: the kernel
// may already have dropped its dirty pages, so a later fsync reporting
// success would acknowledge bytes that never reached the disk.
func (j *journal) sync() error {
	t0 := time.Now()
	if err := j.f.Sync(); err != nil {
		j.rewind(j.durable.bytes)
		j.written = j.durable
		j.failed = true
		return fmt.Errorf("store: syncing record: %w", err)
	}
	j.reg.Counter(metrics.Name("persist_fsync_total", "path", "journal")).Inc()
	j.reg.Histogram(metrics.Name("persist_fsync_seconds", "path", "journal")).ObserveSince(t0)
	j.reg.Counter("persist_journal_bytes_total").Add(j.written.bytes - j.durable.bytes)
	j.durable = j.written
	return nil
}

// rewind truncates the file back to the given record-byte length. Failure
// to rewind poisons the journal.
func (j *journal) rewind(bytes int64) {
	off := headerLen + bytes
	if j.f.Truncate(off) != nil {
		j.failed = true
		return
	}
	if _, err := j.f.Seek(off, io.SeekStart); err != nil {
		j.failed = true
		return
	}
	j.f.Sync() // best-effort: the truncate is what restores the invariant
}

// reset truncates the journal back to its header — the step that follows a
// successful compaction snapshot. Sequence numbering restarts at 1, and a
// poisoned journal recovers: the truncate discards the damage along with
// everything else.
func (j *journal) reset() error {
	if j.closed {
		return fmt.Errorf("store: journal closed")
	}
	if err := j.f.Truncate(headerLen); err != nil {
		return err
	}
	// The records are gone from the file: account for that now, and stay
	// poisoned until the empty journal is durable and positioned.
	j.written, j.durable = extent{}, extent{}
	j.failed = true
	if err := j.f.Sync(); err != nil {
		return err
	}
	if _, err := j.f.Seek(headerLen, io.SeekStart); err != nil {
		return err
	}
	j.failed = false
	return nil
}

// close closes the file; further appends fail. close is idempotent.
func (j *journal) close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	return j.f.Close()
}

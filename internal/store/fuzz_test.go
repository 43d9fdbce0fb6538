package store

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzReadSessionSnapshot proves the snapshot decoder is total over
// adversarial envelopes: any input either decodes into a snapshot that
// re-encodes cleanly, or fails with one of the package's typed sentinels.
// It must never panic, and — enforced structurally by the chunked section
// reader — never allocate beyond the bytes actually presented, whatever
// lengths the envelope claims.
func FuzzReadSessionSnapshot(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteSessionSnapshot(&valid, goldenSnapshot()); err != nil {
		f.Fatal(err)
	}
	v := valid.Bytes()
	f.Add(v)
	f.Add(v[:9])                                   // header only
	f.Add(v[:len(v)/2])                            // truncated mid-section
	f.Add(v[:len(v)-1])                            // missing end marker
	f.Add(append(append([]byte(nil), v...), 0xff)) // trailing byte
	flipped := append([]byte(nil), v...)
	flipped[20] ^= 0xff
	f.Add(flipped) // checksum break
	f.Add([]byte("VADASNAP"))
	f.Add([]byte{'V', 'A', 'D', 'A', 'S', 'N', 'A', 'P', 1, 0})                            // v1, zero sections
	f.Add([]byte{'V', 'A', 'D', 'A', 'S', 'N', 'A', 'P', 1, 0x7f})                         // unknown kind, truncated
	f.Add([]byte{'V', 'A', 'D', 'A', 'S', 'N', 'A', 'P', 1, 0x01, 0xff, 0xff, 0xff, 0xff}) // hostile length
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ReadSessionSnapshot(bytes.NewReader(data))
		if err != nil {
			for _, sentinel := range []error{ErrBadMagic, ErrBadVersion, ErrTruncated,
				ErrChecksum, ErrTooLarge, ErrBadSnapshot} {
				if errors.Is(err, sentinel) {
					return
				}
			}
			t.Fatalf("untyped decode error: %v", err)
		}
		// Anything that decodes must re-encode...
		var buf bytes.Buffer
		if err := WriteSessionSnapshot(&buf, snap); err != nil {
			t.Fatalf("re-encoding decoded snapshot: %v", err)
		}
		// ...and decode again to the same bytes (the format is a fixpoint).
		again, err := ReadSessionSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding re-encoded snapshot: %v", err)
		}
		var buf2 bytes.Buffer
		if err := WriteSessionSnapshot(&buf2, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("re-encoding is not a fixpoint")
		}
	})
}

// FuzzReplayJournal throws arbitrary bytes at the journal reader and checks
// the recovery invariants hold for every input:
//
//   - no panics, and allocation bounded by the bytes actually presented;
//   - every error wraps a header sentinel (bad magic, bad version,
//     truncated) — the error surface is closed;
//   - the reported valid prefix really is one: re-replaying data[:Valid]
//     succeeds, undamaged, yielding the same records (the fixpoint that
//     makes truncate-to-Valid a safe recovery action).
func FuzzReplayJournal(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("VADAJRNL\x01"))
	f.Add([]byte("VADAJRNL\x02"))
	f.Add([]byte("not a journal at all"))
	f.Add(append([]byte("VADAJRNL\x01"), []byte{0x01, 0, 0, 0, 200, '{'}...))
	seed := encodeJournal(f, goldenRecords())
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	mutated := append([]byte(nil), seed...)
	mutated[len(mutated)/2] ^= 0xff
	f.Add(mutated)
	// Today's run records, alone and after an older binary's records.
	var runRecs []Record
	for i := 1; i <= 3; i++ {
		rec := *stageRec(i)
		rec.Seq = uint64(i)
		runRecs = append(runRecs, rec)
	}
	fresh := encodeJournal(f, runRecs)
	f.Add(fresh)
	f.Add(fresh[:len(fresh)-7])
	mixed := goldenRecords()
	for _, rec := range runRecs {
		rec.Seq = uint64(len(mixed) + 1)
		mixed = append(mixed, rec)
	}
	f.Add(encodeJournal(f, mixed))

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := Replay(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrBadVersion) &&
				!errors.Is(err, ErrTruncated) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if res.Valid < headerLen || res.Valid > int64(len(data)) {
			t.Fatalf("valid offset %d outside [%d, %d]", res.Valid, headerLen, len(data))
		}
		again, err := Replay(bytes.NewReader(data[:res.Valid]))
		if err != nil {
			t.Fatalf("valid prefix failed to replay: %v", err)
		}
		if again.Damaged || again.Valid != res.Valid || len(again.Records) != len(res.Records) {
			t.Fatalf("prefix replay drifted: damaged=%v valid=%d/%d records=%d/%d",
				again.Damaged, again.Valid, res.Valid, len(again.Records), len(res.Records))
		}
	})
}

package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/feedback"
	"vada/internal/kb"
	"vada/internal/mcda"
	"vada/internal/relation"
	"vada/internal/runs"
	"vada/internal/session"
)

// Meta is the identity section of a session snapshot — what it takes to
// build the session's Wrangler before the knowledge base is merged back in.
// The session's state is the knowledge base and nothing else; a snapshot
// carries no configuration, because a wrangler has none a binary varies.
type Meta struct {
	// ID is the session identifier, preserved across restarts.
	ID string `json:"id"`
	// Name is the optional human-readable label.
	Name string `json:"name,omitempty"`
	// CreatedAt and LastActive carry the session's pre-restart lifetimes.
	CreatedAt  time.Time `json:"created_at"`
	LastActive time.Time `json:"last_active"`
	// Seed is the oracle feedback seed of a scenario-backed session.
	Seed int64 `json:"seed,omitempty"`
	// Scenario is the generating configuration of a scenario-backed
	// session; generation is deterministic, so the config suffices to
	// rebuild sources, ground truth and oracle. Nil for sessions over
	// hand-registered sources.
	Scenario *datagen.Config `json:"scenario,omitempty"`

	// Legacy, read and never written: what snapshots carried beside the
	// knowledge base before it held everything — the wrangler configuration,
	// the feedback items with their observed values, the output hashes of
	// mapping execution and fusion, and a blank session's target schema as
	// "name" / "name:kind" specs. Recovery folds the same fields of old
	// journal records in here, and restoreSession moves the lot into the
	// knowledge base (upgrade) — the configuration and the hashes apart, which
	// nothing reads any more: a restored wrangler has the suite's constants.
	// Upgrade leaves Options as read: a snapshot that differs from today's
	// layout only by it describes the state it always did, and is not
	// rewritten for it.
	Options    json.RawMessage   `json:"options,omitempty"`
	Feedback   []feedback.Item   `json:"feedback,omitempty"`
	ExecHashes map[string]uint64 `json:"exec_hashes,omitempty"`
	FusedHash  uint64            `json:"fused_hash,omitempty"`
	TargetName string            `json:"target_name,omitempty"`
	Target     []string          `json:"target,omitempty"`
}

// SessionSnapshot is the decoded form of one persisted session: identity,
// the full knowledge base, the typed stage-event history
// (oracle scores included), and the terminal runs of the engine's retention
// ring, so 202-style run resources survive restarts.
type SessionSnapshot struct {
	Meta   Meta
	KB     *kb.KB
	Events []session.Event
	Runs   []runs.Run
}

// Section kinds of the session-snapshot layout.
const (
	sectionEnd    byte = 0x00
	sectionMeta   byte = 0x01
	sectionKB     byte = 0x02
	sectionEvents byte = 0x03
	sectionRuns   byte = 0x04
)

// section is one framed payload of an envelope.
type section struct {
	kind byte
	data []byte
}

// WriteSessionSnapshot serialises a snapshot as a format-v1 envelope — the
// header, then meta, knowledge base, events and runs sections, each one
// frame, then an end marker. Every payload is JSON (the knowledge-base
// section is exactly the kb.WriteSnapshot wire form), so the format stays
// debuggable with a hex dump and `jq`. Output is deterministic for a given
// snapshot, which is what lets golden fixtures pin the format byte-for-byte.
// The envelope is encoded whole before it is written, in one call: when
// encoding fails, nothing reaches w.
func WriteSessionSnapshot(w io.Writer, snap *SessionSnapshot) error {
	if snap == nil || snap.Meta.ID == "" {
		return fmt.Errorf("%w: snapshot needs a session ID", ErrBadSnapshot)
	}
	if snap.KB == nil {
		return fmt.Errorf("%w: snapshot needs a knowledge base", ErrBadSnapshot)
	}
	events := snap.Events
	if events == nil {
		events = []session.Event{}
	}
	runList := snap.Runs
	if runList == nil {
		runList = []runs.Run{}
	}
	b := header(snapshotMagic)
	for _, s := range []struct {
		kind   byte
		what   string
		encode func([]byte) ([]byte, error)
	}{
		{sectionMeta, "meta", marshalInto(snap.Meta)},
		{sectionKB, "knowledge base", func(b []byte) ([]byte, error) {
			buf := bytes.NewBuffer(b)
			err := snap.KB.WriteSnapshot(buf)
			return buf.Bytes(), err
		}},
		{sectionEvents, "events", marshalInto(events)},
		{sectionRuns, "runs", marshalInto(runList)},
	} {
		var err error
		if b, err = appendFrame(b, s.kind, s.encode); err != nil {
			return fmt.Errorf("store: encoding %s: %w", s.what, err)
		}
	}
	if _, err := w.Write(append(b, sectionEnd)); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	return nil
}

// marshalInto is an appendFrame encoder for one encoding/json value.
func marshalInto(v any) func([]byte) ([]byte, error) {
	return func(b []byte) ([]byte, error) {
		data, err := json.Marshal(v)
		return append(b, data...), err
	}
}

// readEnvelope parses the framing, verifying header, lengths and checksums.
// It allocates per section only as payload bytes actually arrive, so
// truncated streams with hostile length prefixes stay cheap.
func readEnvelope(r io.Reader) ([]section, error) {
	if err := readHeader(r, snapshotMagic); err != nil {
		return nil, err
	}
	var sections []section
	for {
		var kind [1]byte
		if _, err := io.ReadFull(r, kind[:]); err != nil {
			return nil, fmt.Errorf("%w: missing end marker: %w", ErrTruncated, err)
		}
		if kind[0] == sectionEnd {
			if n, _ := io.CopyN(io.Discard, r, 1); n != 0 {
				return nil, fmt.Errorf("%w: trailing data after end marker", ErrBadSnapshot)
			}
			return sections, nil
		}
		payload, err := readFrameBody(r, kind[0])
		if err != nil {
			return nil, err
		}
		sections = append(sections, section{kind: kind[0], data: payload})
	}
}

// ReadSessionSnapshot decodes a snapshot envelope. It is strict: the meta
// and knowledge-base sections are required, every section may appear at
// most once, and unknown section kinds fail — a v2 writer must bump the
// version byte, not smuggle sections past a v1 reader. Every error wraps
// one of the package's typed sentinels; hostile input cannot panic the
// decoder or make it allocate beyond the bytes actually presented. Unknown
// JSON fields are tolerated: additive meta fields stay readable within a
// format version.
func ReadSessionSnapshot(r io.Reader) (*SessionSnapshot, error) {
	sections, err := readEnvelope(r)
	if err != nil {
		return nil, err
	}
	snap := &SessionSnapshot{}
	seen := map[byte]bool{}
	for _, sec := range sections {
		if seen[sec.kind] {
			return nil, fmt.Errorf("%w: duplicate section 0x%02x", ErrBadSnapshot, sec.kind)
		}
		seen[sec.kind] = true
		var what string
		switch sec.kind {
		case sectionMeta:
			what, err = "meta", decodeJSON(sec.data, &snap.Meta)
		case sectionKB:
			what = "knowledge base"
			snap.KB, err = kb.ReadSnapshot(sec.data)
		case sectionEvents:
			what, err = "events", decodeJSON(sec.data, &snap.Events)
		case sectionRuns:
			what, err = "runs", decodeJSON(sec.data, &snap.Runs)
		default:
			return nil, fmt.Errorf("%w: unknown section 0x%02x", ErrBadSnapshot, sec.kind)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %w", ErrBadSnapshot, what, err)
		}
	}
	if !seen[sectionMeta] {
		return nil, fmt.Errorf("%w: missing meta section", ErrBadSnapshot)
	}
	if !seen[sectionKB] {
		return nil, fmt.Errorf("%w: missing knowledge-base section", ErrBadSnapshot)
	}
	if snap.Meta.ID == "" {
		return nil, fmt.Errorf("%w: empty session ID", ErrBadSnapshot)
	}
	return snap, nil
}

// decodeJSON unmarshals one JSON value that must be all of data.
func decodeJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data")
	}
	return nil
}

// captureSession snapshots a live (or just-closed) session: identity, a
// snapshot of the knowledge base, the stage-event history, and — when an
// engine is given — every terminal run of the session still in the retention
// ring. Every capture is taken between stages, under the session's run mutex
// (Session.BetweenStages: a compaction, an export) or once it has quiesced (a
// teardown), so history and knowledge base hold the same stages.
func captureSession(s *session.Session, eng *runs.Engine) *SessionSnapshot {
	events := s.Events()
	snap := &SessionSnapshot{
		Meta: Meta{
			ID:         s.ID(),
			Name:       s.Name(),
			CreatedAt:  s.CreatedAt(),
			LastActive: s.LastActive(),
			Seed:       s.Seed(),
		},
		KB:     s.Wrangler().KB.Snapshot(),
		Events: events,
	}
	if sc := s.Scenario(); sc != nil {
		cfg := sc.Config
		snap.Meta.Scenario = &cfg
	}
	if eng != nil {
		snap.Runs = eng.ListTerminal(s.ID())
	}
	return snap
}

// ExportSession captures a session between two of its stages and writes its
// snapshot envelope — the GET .../export path. A running stage delays the
// capture until it ends; the encoding does not hold the next stage up.
func ExportSession(w io.Writer, s *session.Session, eng *runs.Engine) error {
	var snap *SessionSnapshot
	s.BetweenStages(func() { snap = captureSession(s, eng) })
	return WriteSessionSnapshot(w, snap)
}

// restoreSession rebuilds a live session from a decoded snapshot: the
// wrangler is reconstructed (deterministically regenerating the scenario
// when one is recorded), the knowledge base merged back in — which is the
// whole of the session's state — and the session stamped with its pre-restart
// identity and event history. Extra options (the metrics registry,
// typically) apply after the restore's own. The wrangler
// is built with the suite's constants, whatever legacy options the snapshot
// carries. A snapshot in the layout of an
// older binary is consumed: what its Meta carried is moved into the knowledge
// base and the fields are left empty.
func restoreSession(snap *SessionSnapshot, opts ...session.Option) (*session.Session, error) {
	if snap == nil || snap.Meta.ID == "" {
		return nil, fmt.Errorf("%w: empty session ID", ErrBadSnapshot)
	}
	if cfg := snap.Meta.Scenario; cfg != nil && (cfg.NProperties < 0 || cfg.NPostcodes < 0) {
		// Negative sizes would panic scenario generation; callers enforce
		// their own upper bounds (the service bounds both at 2000 before
		// restoring imported snapshots).
		return nil, fmt.Errorf("%w: negative scenario size (%d properties, %d postcodes)",
			ErrBadSnapshot, cfg.NProperties, cfg.NPostcodes)
	}
	var w *core.Wrangler
	sessOpts := []session.Option{
		session.WithName(snap.Meta.Name),
		session.WithRestored(snap.Meta.CreatedAt, snap.Meta.LastActive, snap.Events),
	}
	if cfg := snap.Meta.Scenario; cfg != nil {
		sc := datagen.Generate(*cfg)
		w = core.BuildScenarioWrangler(sc)
		sessOpts = append(sessOpts, session.WithScenario(sc, snap.Meta.Seed))
	} else {
		w = core.NewWrangler()
	}
	if snap.KB != nil {
		w.KB.Merge(snap.KB)
	}
	upgrade(w, &snap.Meta)
	sessOpts = append(sessOpts, opts...)
	return session.New(snap.Meta.ID, w, sessOpts...), nil
}

// upgrade is the only reader of the layout older binaries wrote (fold apart,
// which folds old records into old fields): it moves what m carries
// beside the knowledge base into w's, through the API that would have put it
// there, and empties the fields. What the knowledge base already holds in
// today's layout wins.
func upgrade(w *core.Wrangler, m *Meta) {
	if len(m.Feedback) > 0 && w.KB.Relation(feedback.RelItems) == nil {
		w.AddFeedback(m.Feedback...)
	}
	if _, set := w.TargetSchema(); !set && len(m.Target) > 0 {
		w.SetTargetSchema(legacyTarget(m.TargetName, m.Target))
	}
	// uc_priority facts of five columns carry no position: they state the
	// model in storage order, as they always did on restore.
	old := w.KB.Facts(core.PredPriority)
	stated := len(old)
	old = slices.DeleteFunc(old, func(f relation.Tuple) bool { return len(f) != 5 })
	if len(old) > 0 && len(old) == stated {
		model := mcda.NewModel()
		for _, f := range old {
			more := mcda.Criterion{Metric: f[0].Str(), Target: f[1].Str()}
			less := mcda.Criterion{Metric: f[2].Str(), Target: f[3].Str()}
			_ = model.AddComparison(more, less, mcda.Strength(f[4].IntVal())) // an inconsistent pair is skipped, not fatal
		}
		w.SetUserContext(model) // replaces the facts
	} else {
		w.KB.RetractWhere(core.PredPriority, func(f relation.Tuple) bool { return len(f) == 5 })
	}
	m.Feedback, m.ExecHashes, m.FusedHash, m.TargetName, m.Target = nil, nil, 0, "", nil
}

// legacyTarget rebuilds a target schema from the attribute specs an older
// snapshot carried. Unlike relation.NewSchema it never panics: snapshots can
// arrive through the import route, so an unknown kind in a hand-edited file
// degrades to string.
func legacyTarget(name string, specs []string) relation.Schema {
	if name == "" {
		name = "target"
	}
	attrs := make([]relation.Attribute, 0, len(specs))
	for _, spec := range specs {
		attrName, kindName, found := strings.Cut(spec, ":")
		kind := relation.KindString
		if found {
			if k, err := relation.KindFromString(kindName); err == nil {
				kind = k
			}
		}
		attrs = append(attrs, relation.Attribute{Name: attrName, Type: kind})
	}
	return relation.Schema{Name: name, Attrs: attrs}
}

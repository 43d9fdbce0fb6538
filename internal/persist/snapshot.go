package persist

import (
	"bytes"
	"encoding/json"
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
	// "name" / "name:kind" specs. journal.Compose folds the same fields of old
	// journal records in here, and RestoreSession moves the lot into the
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

// WriteSessionSnapshot serialises a snapshot as a format-v1 envelope:
// meta, knowledge base, events and runs sections, each length-prefixed and
// checksummed. Output is deterministic for a given snapshot, which is what
// lets golden fixtures pin the format byte-for-byte.
func WriteSessionSnapshot(w io.Writer, snap *SessionSnapshot) error {
	if snap == nil || snap.Meta.ID == "" {
		return fmt.Errorf("%w: snapshot needs a session ID", ErrBadSnapshot)
	}
	if snap.KB == nil {
		return fmt.Errorf("%w: snapshot needs a knowledge base", ErrBadSnapshot)
	}
	metaData, err := json.Marshal(snap.Meta)
	if err != nil {
		return fmt.Errorf("persist: encoding meta: %w", err)
	}
	var kbBuf bytes.Buffer
	if err := snap.KB.WriteSnapshot(&kbBuf); err != nil {
		return fmt.Errorf("persist: encoding knowledge base: %w", err)
	}
	events := snap.Events
	if events == nil {
		events = []session.Event{}
	}
	eventData, err := json.Marshal(events)
	if err != nil {
		return fmt.Errorf("persist: encoding events: %w", err)
	}
	runList := snap.Runs
	if runList == nil {
		runList = []runs.Run{}
	}
	runData, err := json.Marshal(runList)
	if err != nil {
		return fmt.Errorf("persist: encoding runs: %w", err)
	}
	return writeEnvelope(w, FormatV1, []section{
		{kind: sectionMeta, data: metaData},
		{kind: sectionKB, data: kbBuf.Bytes()},
		{kind: sectionEvents, data: eventData},
		{kind: sectionRuns, data: runData},
	})
}

// ReadSessionSnapshot decodes a snapshot envelope. It is strict: the meta
// and knowledge-base sections are required, every section may appear at
// most once, and unknown section kinds fail — a v2 writer must bump the
// version byte, not smuggle sections past a v1 reader. Every error wraps
// one of the package's typed sentinels; hostile input cannot panic the
// decoder or make it allocate beyond the bytes actually presented.
func ReadSessionSnapshot(r io.Reader) (*SessionSnapshot, error) {
	_, sections, err := readEnvelope(r)
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
		switch sec.kind {
		case sectionMeta:
			if err := decodeJSONSection(sec.data, &snap.Meta, "meta"); err != nil {
				return nil, err
			}
		case sectionKB:
			k, err := kb.ReadSnapshot(bytes.NewReader(sec.data))
			if err != nil {
				return nil, fmt.Errorf("%w: knowledge base: %w", ErrBadSnapshot, err)
			}
			snap.KB = k
		case sectionEvents:
			if err := decodeJSONSection(sec.data, &snap.Events, "events"); err != nil {
				return nil, err
			}
		case sectionRuns:
			if err := decodeJSONSection(sec.data, &snap.Runs, "runs"); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: unknown section 0x%02x", ErrBadSnapshot, sec.kind)
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

// decodeJSONSection unmarshals one JSON section, rejecting trailing data
// and mapping failures onto ErrBadSnapshot. Unknown fields are tolerated:
// additive meta fields stay readable within a format version.
func decodeJSONSection(data []byte, v any, what string) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %s: %w", ErrBadSnapshot, what, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("%w: %s: trailing data", ErrBadSnapshot, what)
	}
	return nil
}

// CaptureSession snapshots a live (or just-closed) session: identity,
// configuration, a snapshot of the knowledge base, the stage-event
// history, and — when an engine is given — every terminal run of the
// session still in the retention ring. Callers wanting a consistent
// capture quiesce the session first (the manager's evict hooks already
// run post-quiescence).
func CaptureSession(s *session.Session, eng *runs.Engine) *SessionSnapshot {
	// Events strictly before the KB: racing a completing stage may then
	// miss the stage's event while the KB already holds (some of) its
	// writes — "not in the snapshot yet" — but never record an event whose
	// KB effects are absent, which would make history and result disagree.
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
		for _, r := range eng.List(s.ID()) {
			if r.State.Terminal() {
				snap.Runs = append(snap.Runs, r)
			}
		}
	}
	return snap
}

// ExportSession captures a session and writes its snapshot envelope — the
// GET .../export path.
func ExportSession(w io.Writer, s *session.Session, eng *runs.Engine) error {
	return WriteSessionSnapshot(w, CaptureSession(s, eng))
}

// RestoreSession rebuilds a live session from a decoded snapshot: the
// wrangler is reconstructed (deterministically regenerating the scenario
// when one is recorded), the knowledge base merged back in — which is the
// whole of the session's state — and the session stamped with its pre-restart
// identity and event history. Extra options (the metrics registry and the
// stage-commit hook, typically) apply after the restore's own. The wrangler
// is built with the suite's constants, whatever legacy options the snapshot
// carries. A snapshot in the layout of an
// older binary is consumed: what its Meta carried is moved into the knowledge
// base and the fields are left empty.
func RestoreSession(snap *SessionSnapshot, opts ...session.Option) (*session.Session, error) {
	if snap == nil || snap.Meta.ID == "" {
		return nil, fmt.Errorf("%w: empty session ID", ErrBadSnapshot)
	}
	if cfg := snap.Meta.Scenario; cfg != nil && (cfg.NProperties < 0 || cfg.NPostcodes < 0) {
		// Negative sizes would panic scenario generation; callers enforce
		// their own upper bounds (the service applies its -max-n policy
		// before restoring imported snapshots).
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

// upgrade is the only reader of the layout older binaries wrote (journal.Compose
// apart, which folds old records into old fields): it moves what m carries
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

// RestoreInto restores a snapshot and registers it with the manager and —
// run history included — the engine: the boot and import path of the
// service. The manager's cap applies; an ID already live fails with
// session.ErrExists and registers nothing.
func RestoreInto(mgr *session.Manager, eng *runs.Engine, snap *SessionSnapshot, opts ...session.Option) (*session.Session, error) {
	s, err := RestoreSession(snap, opts...)
	if err != nil {
		return nil, err
	}
	if err := mgr.Restore(s); err != nil {
		return nil, err
	}
	if eng != nil {
		eng.Adopt(snap.Runs)
	}
	return s, nil
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

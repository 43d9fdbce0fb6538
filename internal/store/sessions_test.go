package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"vada/internal/core"
	"vada/internal/session"
)

// The table's own contract — cap, listing, eviction, teardown order — is
// tested from outside the store, in internal/session/lifecycle_test.go.
// These two need the store's file-step hook.

// TestDeleteRacingEviction: a DELETE that finds the session already taken
// out by an eviction answers not-found and leaves the files exactly as the
// eviction leaves them — compacted in place, restorable, not archived.
func TestDeleteRacingEviction(t *testing.T) {
	dir := t.TempDir()
	r := start(t, dir)
	sess := r.create(1)
	r.bootstrap(sess)
	want := r.export(sess)
	id := sess.ID()

	release := park(sess)
	evicted := make(chan []string, 1)
	go func() { evicted <- r.st.EvictIdle(0) }()
	r.gone(id)
	if err := r.st.Archive(id); !errors.Is(err, session.ErrNotFound) {
		t.Fatalf("DELETE of a session being evicted: %v, want not found", err)
	}
	release()
	if got := <-evicted; len(got) != 1 || got[0] != id {
		t.Fatalf("evicted %v, want [%s]", got, id)
	}
	if exists(filepath.Join(dir, closedDir, id+SnapshotExt)) {
		t.Fatal("the DELETE answered not-found, yet the session was archived")
	}
	if info, err := os.Stat(r.st.path(id, journalExt)); err != nil || info.Size() != 9 {
		t.Fatalf("journal of the evicted session not truncated to its header: %v", err)
	}
	if got := boot(t, dir).exportID(id); !bytes.Equal(got, want) {
		t.Fatalf("recovered %d bytes, the evicted session exported %d", len(got), len(want))
	}
}

// TestCreateInvisibleUntilDurable: a session whose files are still being
// written is neither found nor listed, yet already counts against the cap.
func TestCreateInvisibleUntilDurable(t *testing.T) {
	r := start(t, t.TempDir())
	r.st.maxSessions = 1
	reached, resume := make(chan struct{}), make(chan struct{})
	r.st.onStep = func(step string) {
		if step == "journal" {
			close(reached)
			<-resume
		}
	}
	created := make(chan *session.Session, 1)
	go func() {
		sess, err := r.st.Create(core.NewWrangler())
		if err != nil {
			t.Error(err)
		}
		created <- sess
	}()
	<-reached
	id := r.onlyID()
	if _, err := r.st.Get(id); !errors.Is(err, session.ErrNotFound) {
		t.Fatalf("Get of a session not yet durable: %v, want not found", err)
	}
	if n := len(r.st.List()); n != 0 {
		t.Fatalf("List shows %d sessions while the only one is not yet durable", n)
	}
	if err := r.st.Archive(id); !errors.Is(err, session.ErrNotFound) {
		t.Fatalf("DELETE of a session not yet durable: %v, want not found", err)
	}
	if _, err := r.st.Create(core.NewWrangler()); !errors.Is(err, session.ErrLimit) {
		t.Fatalf("create at the cap while the first is written: %v, want ErrLimit", err)
	}
	close(resume)
	sess := <-created
	r.st.onStep = nil
	if got, err := r.st.Get(id); err != nil || got != sess {
		t.Fatalf("Get after Create returned: %v, %v", got, err)
	}
}

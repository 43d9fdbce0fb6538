package connect

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestFetchHappyPath(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("street,price\nmain,100\n"))
	}))
	defer ts.Close()
	body, err := Fetch(context.Background(), ts.URL, FetchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rel, stats, err := Read("props", bytes.NewReader(body), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 1 || stats.Rows != 1 || stats.Format != FormatCSV {
		t.Fatalf("rel %d rows, stats %+v", rel.Cardinality(), stats)
	}
}

func TestFetchBadScheme(t *testing.T) {
	for _, u := range []string{"ftp://host/file.csv", "file:///etc/passwd", "://nope"} {
		if _, err := Fetch(context.Background(), u, FetchOptions{}); !errors.Is(err, ErrFetchFailed) {
			t.Fatalf("%s: err = %v, want ErrFetchFailed", u, err)
		}
	}
}

func TestFetchClientErrorDoesNotRetry(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.NotFound(w, r)
	}))
	defer ts.Close()
	_, err := Fetch(context.Background(), ts.URL, FetchOptions{Backoff: time.Millisecond})
	if !errors.Is(err, ErrFetchFailed) {
		t.Fatalf("err = %v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("404 retried: %d calls", n)
	}
}

func TestFetchRetriesServerErrors(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("a\n1\n"))
	}))
	defer ts.Close()
	body, err := Fetch(context.Background(), ts.URL, FetchOptions{Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err := Read("r", bytes.NewReader(body), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 1 || calls.Load() != 3 {
		t.Fatalf("rows = %d, calls = %d", rel.Cardinality(), calls.Load())
	}
}

func TestFetchRetriesExhausted(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "boom", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	_, err := Fetch(context.Background(), ts.URL, FetchOptions{Retries: 1, Backoff: time.Millisecond})
	if !errors.Is(err, ErrFetchFailed) {
		t.Fatalf("err = %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("calls = %d, want 2 (first try + one retry)", n)
	}
}

func TestFetchDecodeErrorKeepsSentinel(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("a,b\n1\n"))
	}))
	defer ts.Close()
	body, err := Fetch(context.Background(), ts.URL, FetchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Read("r", bytes.NewReader(body), ReadOptions{})
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
}

func TestFetchCancelledMidRequest(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer ts.Close()
	defer close(release)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := Fetch(ctx, ts.URL, FetchOptions{})
	if !errors.Is(err, ErrFetchFailed) {
		t.Fatalf("err = %v, want ErrFetchFailed", err)
	}
}

func TestFetchCancelledDuringBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Fetch(ctx, ts.URL, FetchOptions{Backoff: time.Hour})
	if !errors.Is(err, ErrFetchFailed) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not interrupt the backoff wait")
	}
}

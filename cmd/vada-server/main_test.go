package main

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"vada/internal/runs"
	"vada/internal/server"
	"vada/internal/store"
)

// TestParseFlags pins the command line: the eight flags say where the
// server runs, how much it serves, how it logs and whether it exposes
// pprof, their defaults build a working server, -data-dir alone is all
// durability needs, and every flag that used to select a mode or tune a
// constant is gone, not ignored.
func TestParseFlags(t *testing.T) {
	tests := []struct {
		name    string
		args    []string
		wantErr string // substring of the usage error; "" = must parse
		check   func(t *testing.T, addr string, idle time.Duration, cfg server.Config)
	}{
		{name: "defaults", check: func(t *testing.T, addr string, idle time.Duration, cfg server.Config) {
			if addr != ":8080" || idle != 30*time.Minute || cfg.DataDir != "" ||
				cfg.MaxSessions != store.DefaultMaxSessions || cfg.RunWorkers != runs.DefaultWorkers || cfg.Pprof {
				t.Fatalf("defaults = %q %v %+v", addr, idle, cfg)
			}
			if _, text := cfg.Logger.Handler().(*slog.TextHandler); !text ||
				!cfg.Logger.Enabled(context.Background(), slog.LevelInfo) ||
				cfg.Logger.Enabled(context.Background(), slog.LevelDebug) {
				t.Fatal("default logger is not text at level info")
			}
			if healthz(t, cfg)["persist"] != nil {
				t.Fatal("a server without -data-dir reports persist stats")
			}
		}},
		{name: "data-dir alone journals", args: []string{"-addr", "127.0.0.1:0", "-data-dir", t.TempDir()},
			check: func(t *testing.T, addr string, _ time.Duration, cfg server.Config) {
				if addr != "127.0.0.1:0" {
					t.Fatalf("addr = %q", addr)
				}
				persist, ok := healthz(t, cfg)["persist"].(map[string]any)
				if !ok || persist["journaled_sessions"] != float64(1) {
					t.Fatalf("persist stats = %v, want one journaled session", persist)
				}
			}},
		{name: "journal removed", args: []string{"-journal=false"}, wantErr: "not defined: -journal"},
		{name: "group window removed", args: []string{"-journal-group-window", "2ms"}, wantErr: "not defined: -journal-group-window"},
		{name: "group max removed", args: []string{"-journal-group-max", "8"}, wantErr: "not defined: -journal-group-max"},
		{name: "row diffs removed", args: []string{"-journal-row-diffs"}, wantErr: "not defined: -journal-row-diffs"},
		{name: "session shards removed", args: []string{"-session-shards", "32"}, wantErr: "not defined: -session-shards"},
		{name: "trace max removed", args: []string{"-trace-max", "64"}, wantErr: "not defined: -trace-max"},
		{name: "trace max spans removed", args: []string{"-trace-max-spans", "64"}, wantErr: "not defined: -trace-max-spans"},
		{name: "runtime sample removed", args: []string{"-runtime-sample-every", "1s"}, wantErr: "not defined: -runtime-sample-every"},
		{name: "n removed", args: []string{"-n", "60"}, wantErr: "not defined: -n"},
		{name: "seed removed", args: []string{"-seed", "2"}, wantErr: "not defined: -seed"},
		{name: "max-n removed", args: []string{"-max-n", "500"}, wantErr: "not defined: -max-n"},
		{name: "run-queue removed", args: []string{"-run-queue", "8"}, wantErr: "not defined: -run-queue"},
		{name: "run-session-queue removed", args: []string{"-run-session-queue", "2"}, wantErr: "not defined: -run-session-queue"},
		{name: "sse-keepalive removed", args: []string{"-sse-keepalive", "1s"}, wantErr: "not defined: -sse-keepalive"},
		{name: "sse-write-timeout removed", args: []string{"-sse-write-timeout", "1s"}, wantErr: "not defined: -sse-write-timeout"},
		{name: "journal-max-records removed", args: []string{"-journal-max-records", "10"}, wantErr: "not defined: -journal-max-records"},
		{name: "journal-max-bytes removed", args: []string{"-journal-max-bytes", "1024"}, wantErr: "not defined: -journal-max-bytes"},
		{name: "trace removed", args: []string{"-trace=false"}, wantErr: "not defined: -trace"},
		{name: "trace-slow-threshold removed", args: []string{"-trace-slow-threshold", "1s"}, wantErr: "not defined: -trace-slow-threshold"},
		{name: "restore-closed removed", args: []string{"-restore-closed"}, wantErr: "not defined: -restore-closed"},
		{name: "bad log level", args: []string{"-log-level", "loud"}, wantErr: "bad -log-level"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var stderr strings.Builder
			addr, idle, cfg, err := parseFlags(tc.args, &stderr)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				if !strings.Contains(stderr.String(), tc.wantErr) {
					t.Fatalf("stderr = %q, want the error reported", stderr.String())
				}
				return
			}
			if err != nil {
				t.Fatalf("parse: %v\n%s", err, stderr.String())
			}
			tc.check(t, addr, idle, cfg)
		})
	}
}

// TestZeroConfigIsTheBinary: every setting has one default. The server the
// flags' defaults configure and the one a zero server.Config builds — the
// one examples and tests start from — have the same run engine and report
// the same health keys.
func TestZeroConfigIsTheBinary(t *testing.T) {
	_, _, flags, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	binary := healthz(t, flags)
	zero := healthz(t, server.Config{Logger: slog.New(slog.DiscardHandler)})
	if !reflect.DeepEqual(binary["run_stats"], zero["run_stats"]) {
		t.Fatalf("run_stats: flags' defaults %v, zero Config %v", binary["run_stats"], zero["run_stats"])
	}
	if a, b := keys(binary), keys(zero); !reflect.DeepEqual(a, b) {
		t.Fatalf("healthz keys: flags' defaults %v, zero Config %v", a, b)
	}
}

// keys lists a JSON object's keys, sorted.
func keys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// healthz builds the configured server, creates one session and returns
// the decoded health report.
func healthz(t *testing.T, cfg server.Config) map[string]any {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/api/v1/sessions", "application/json", strings.NewReader(`{"n":20}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReadmeFlags keeps README.md and the binary in step: every flag
// `vada-server -h` prints is documented in the README, and every
// backticked -flag in the README's server sections (REST service up to the
// commands list) is one the binary defines.
func TestReadmeFlags(t *testing.T) {
	var usage strings.Builder
	if _, _, _, err := parseFlags([]string{"-h"}, &usage); err != flag.ErrHelp {
		t.Fatalf("-h: %v", err)
	}
	defined := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  (-[a-z][a-z-]*)`).FindAllStringSubmatch(usage.String(), -1) {
		defined[m[1]] = true
	}
	if len(defined) < 8 {
		t.Fatalf("parsed only %d flags out of the usage text:\n%s", len(defined), usage.String())
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, server, ok := strings.Cut(string(readme), "\n## REST service\n")
	if !ok {
		t.Fatal("README.md has no REST service section")
	}
	server, _, ok = strings.Cut(server, "\n## Commands and examples\n")
	if !ok {
		t.Fatal("README.md has no Commands and examples section")
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("`(-[a-z][a-z-]*)").FindAllStringSubmatch(server, -1) {
		documented[m[1]] = true
	}
	for name := range defined {
		if !documented[name] {
			t.Errorf("flag %s is not documented in README.md", name)
		}
	}
	for name := range documented {
		if !defined[name] {
			t.Errorf("README.md documents %s, which vada-server does not define", name)
		}
	}
}

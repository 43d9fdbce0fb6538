// Command vada-server is the thin binary over internal/server: flag
// parsing, structured-logger construction, the idle-eviction ticker and
// graceful signal-driven shutdown. All service behaviour — routes,
// durability, tracing, metrics — lives in the package, so tests host the
// identical wiring in-process. Its flags say where the server runs, how
// much it serves, how it logs and whether it exposes pprof; every other
// setting is a constant of the package it bounds (see internal/server).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vada/internal/runs"
	"vada/internal/server"
	"vada/internal/store"
)

// defaultIdleTimeout is how long a session may sit idle before it is
// evicted.
const defaultIdleTimeout = 30 * time.Minute

// parseFlags turns the command line (without the program name) into the
// listen address, the idle-eviction timeout and the server configuration.
// Whatever goes wrong is reported on stderr — by the flag set for a bad
// command line, here for a bad log setting — before the error is returned.
func parseFlags(args []string, stderr io.Writer) (addr string, idleTimeout time.Duration, cfg server.Config, err error) {
	fs := flag.NewFlagSet("vada-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.DataDir, "data-dir", "", "journal sessions to this directory and restore them on boot (\"\" = ephemeral)")
	fs.IntVar(&cfg.MaxSessions, "max-sessions", store.DefaultMaxSessions, "live session cap")
	fs.DurationVar(&idleTimeout, "idle-timeout", defaultIdleTimeout, "evict sessions idle this long (0 = never)")
	fs.IntVar(&cfg.RunWorkers, "run-workers", runs.DefaultWorkers, "run engine worker-pool size: every stage, synchronous or not, runs on it")
	fs.BoolVar(&cfg.Pprof, "pprof", false, "serve net/http/pprof under /debug/pprof/")
	logFormat := fs.String("log-format", "text", "structured log format: text or json")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
	if err = fs.Parse(args); err != nil {
		return "", 0, server.Config{}, err
	}
	if cfg.Logger, err = buildLogger(stderr, *logFormat, *logLevel); err != nil {
		fmt.Fprintf(stderr, "vada-server: %v\n", err)
		return "", 0, server.Config{}, err
	}
	return addr, idleTimeout, cfg, nil
}

func main() {
	addr, idleTimeout, cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(2)
	}
	logger := cfg.Logger
	// Default too, so free-standing helpers (response encoders) and any
	// library slog use share the configured handler.
	slog.SetDefault(logger)

	s, err := server.New(cfg)
	if err != nil {
		logger.Error("startup failed", "error", err)
		os.Exit(1)
	}
	if idleTimeout > 0 {
		go func() {
			for range time.Tick(idleTimeout / 4) {
				for _, id := range s.EvictIdle(idleTimeout) {
					logger.Info("session evicted (idle)", "session", id)
				}
			}
		}()
	}

	srv := &http.Server{Addr: addr, Handler: s.Handler()}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("shutdown", "error", err)
		}
	}()
	logger.Info("serving /api/v1/sessions", "addr", addr,
		"max_sessions", cfg.MaxSessions, "data_dir", cfg.DataDir, "pprof", cfg.Pprof)
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		logger.Error("listen failed", "error", err)
		os.Exit(1)
	}
	// Wait for Shutdown to finish draining in-flight handlers before the
	// final snapshot sweep — a stage a client got a 200 for must be in it.
	<-drained
	s.Close() // drain runs, snapshot every session
	logger.Info("shutdown complete")
}

// buildLogger constructs the process logger from the -log-format and
// -log-level flags.
func buildLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

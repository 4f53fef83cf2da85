package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"f3m/internal/core"
	"f3m/internal/obs"
	"f3m/internal/serve"
)

// runServe implements the `f3m serve` subcommand: a long-lived
// merge-as-a-service daemon exposing the HTTP/JSON API documented in
// SERVING.md. It blocks until a shutdown signal (SIGINT/SIGTERM) or
// the shutdown endpoint fires, then drains in-flight requests.
func runServe(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("f3m serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7333", "listen address")
	strategy := fs.String("strategy", "f3m", "ranking strategy: "+strings.Join(core.StrategyNames(), ", "))
	threshold := fs.Float64("threshold", -1, "similarity threshold (-1 = strategy default)")
	k := fs.Int("k", 0, "MinHash fingerprint size (0 = default)")
	workers := fs.Int("workers", 0, "fingerprinting parallelism per merge (0 = GOMAXPROCS)")
	check := fs.String("check", "off", "static-analysis level: off, fast, strict or validate")
	snapshot := fs.String("snapshot", "", "default snapshot file for the snapshot/restore endpoints")
	restore := fs.Bool("restore", false, "restore state from the -snapshot file before listening")
	snapshotEvery := fs.Duration("snapshot-every", 0, "write -snapshot periodically (0 = only on demand)")
	readyFile := fs.String("ready-file", "", "write the bound address to FILE once listening (for scripts)")
	selfcheck := fs.Bool("selfcheck", false, "run the API self-check against a loopback instance and exit")
	servingDoc := fs.String("serving-doc", "", "with -selfcheck: fail unless FILE documents every route")
	trace := fs.Bool("trace", false, "record request and pipeline spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("serve: unexpected arguments %q", fs.Args())
	}

	if *selfcheck {
		return serve.SelfCheck(stdout, *servingDoc)
	}

	strat, err := core.ParseStrategy(*strategy)
	if err != nil {
		return err
	}
	checkMode, err := core.ParseCheckMode(*check)
	if err != nil {
		return err
	}

	cfg := serve.DefaultConfig()
	cfg.Store.K = *k
	cfg.Strategy = strat
	cfg.Threshold = *threshold
	cfg.K = *k
	cfg.Workers = *workers
	cfg.Check = checkMode
	cfg.SnapshotPath = *snapshot
	cfg.Metrics = obs.NewMetrics()
	if *trace {
		cfg.Tracer = obs.NewTracer()
	}
	srv := serve.NewServer(cfg)

	if *restore {
		if *snapshot == "" {
			return fmt.Errorf("serve: -restore needs -snapshot FILE")
		}
		if _, err := os.Stat(*snapshot); err == nil {
			info, err := srv.Restore("")
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "restored %d modules (%d funcs) from %s\n", info.Modules, info.Funcs, info.Path)
		} else {
			fmt.Fprintf(stdout, "no snapshot at %s yet; starting empty\n", *snapshot)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, "f3m serve: listening on %s\n", ln.Addr())
	if *readyFile != "" {
		if err := os.WriteFile(*readyFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			hs.Close()
			return err
		}
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	var ticker *time.Ticker
	var tick <-chan time.Time
	if *snapshotEvery > 0 && *snapshot != "" {
		ticker = time.NewTicker(*snapshotEvery)
		tick = ticker.C
		defer ticker.Stop()
	}

loop:
	for {
		select {
		case sig := <-sigCh:
			fmt.Fprintf(stdout, "f3m serve: %v, shutting down\n", sig)
			break loop
		case <-srv.ShutdownRequested():
			fmt.Fprintln(stdout, "f3m serve: shutdown requested, shutting down")
			break loop
		case err := <-errCh:
			return fmt.Errorf("serve: %w", err)
		case <-tick:
			if info, err := srv.Snapshot(""); err != nil {
				fmt.Fprintf(stdout, "f3m serve: periodic snapshot failed: %v\n", err)
			} else {
				fmt.Fprintf(stdout, "f3m serve: snapshot %s (%d modules, %d bytes)\n", info.Path, info.Modules, info.Bytes)
			}
		}
	}

	// Stop accepting connections, then drain in-flight requests —
	// including a running merge — before exiting.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("serve: http shutdown: %w", err)
	}
	if err := srv.Close(ctx); err != nil {
		return fmt.Errorf("serve: drain: %w", err)
	}
	if *snapshot != "" {
		if info, err := srv.Snapshot(""); err != nil {
			fmt.Fprintf(stdout, "f3m serve: final snapshot failed: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "f3m serve: final snapshot %s (%d modules)\n", info.Path, info.Modules)
		}
	}
	fmt.Fprintln(stdout, "f3m serve: drained, bye")
	return nil
}

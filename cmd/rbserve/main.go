// Command rbserve is the multi-tenant tuning-as-a-service control
// plane: a long-running HTTP/JSON API in front of a cross-experiment
// arbiter sharing one simulated cluster across tenants.
//
// Usage:
//
//	rbserve -addr :8080 -capacity 64                # in-memory
//	rbserve -addr :8080 -capacity 64 -data /var/rb  # durable + recovery
//	rbserve -policy fifo                            # naive baseline arbiter
//
// API:
//
//	POST /v1/experiments                submit (202; 429 + Retry-After on backlog)
//	GET  /v1/experiments/{id}           status: state, live cost, predicted JCT
//	GET  /v1/experiments/{id}/events    chunked ndjson event stream (?from=N)
//	GET  /v1/experiments/{id}/replay    (seed, spec, decisions) replay tuple
//	GET  /v1/tenants/{tenant}           tenant queue/live/quota counters
//	GET  /v1/stats                      fleet-wide capacity and occupancy
//
// Every admitted experiment runs on its own seeded virtual clock; the
// only nondeterministic input it consumes is the arbiter's grant
// sequence, which is journaled and reported in the replay tuple, so
// completed experiments re-derive bit-identical digests offline via
// `rbfuzz -serve-replay`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		capacity  = flag.Int("capacity", 64, "shared cluster capacity in GPUs")
		policy    = flag.String("policy", "slack", "arbitration policy: slack (deadline-slack) or fifo (static shares)")
		dataDir   = flag.String("data", "", "durable data root (empty: in-memory only, no crash recovery)")
		interval  = flag.Uint64("snapshot-interval", 64, "journal snapshot interval in observed events (0 selects the default, 64)")
		maxQueued = flag.Int("max-queued", 16, "per-tenant submission queue bound")
		maxLive   = flag.Int("max-live", 4, "per-tenant concurrently-live bound")
		maxGPUs   = flag.Int("max-gpus", 32, "per-submission peak GPU cap")
	)
	flag.Parse()

	pol, err := serve.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbserve:", err)
		os.Exit(2)
	}
	s, err := serve.NewServer(serve.Config{
		Capacity:         *capacity,
		Policy:           pol,
		Quota:            serve.Quota{MaxQueued: *maxQueued, MaxLive: *maxLive, MaxGPUs: *maxGPUs},
		DataDir:          *dataDir,
		SnapshotInterval: *interval,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbserve:", err)
		os.Exit(2)
	}
	if *dataDir != "" {
		rep, err := s.Recover()
		if err != nil {
			fmt.Fprintln(os.Stderr, "rbserve: recovery:", err)
			os.Exit(1)
		}
		if rep.Adopted+rep.Resumed+len(rep.Failed) > 0 {
			fmt.Fprintf(os.Stderr, "rbserve: recovered %d completed, resumed %d unfinished, %d damaged, %d failed\n",
				rep.Adopted, rep.Resumed, len(rep.Damaged), len(rep.Failed))
		}
	}

	hs := &http.Server{Addr: *addr, Handler: s.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "rbserve: serving on %s (capacity %d GPUs, policy %s)\n", *addr, *capacity, pol)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "rbserve:", err)
			os.Exit(1)
		}
	case <-sig:
		// Graceful: stop accepting, let live virtual runs finish (they
		// complete in wall-milliseconds), then exit. Unfinished journals
		// are recovered on restart.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "rbserve: shutdown:", err)
		}
		s.Close()
	}
}

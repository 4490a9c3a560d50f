// Command widir-serve runs the WiDir simulation farm: an HTTP/JSON
// service that executes canonical simulations on demand and persists
// every result in a content-addressed disk cache, so any sweep the
// farm has computed before — in this process or any earlier one — is
// served from disk without re-simulating.
//
// Usage:
//
//	widir-serve                          # listen on :8344, cache in ./widir-cache
//	widir-serve -addr :9000 -cache /var/lib/widir -workers 8 -queue 512
//	widir-serve -smoke                   # self-test: sim, restart, kill -9, verify all-cached
//
// API (see DESIGN.md §16):
//
//	POST /api/v1/sweeps                        submit a sweep (202; 429+Retry-After when full)
//	GET  /api/v1/jobs/{id}                     job status
//	GET  /api/v1/jobs/{id}/stream              results as JSON lines, flushed as they complete
//	GET  /api/v1/runs/{hash}/artifacts/{name}  result.csv, trace.jsonl, trace.perfetto.json
//	GET  /api/v1/runs/{hash}/entry             the cached entry.json bytes (404 when not cached)
//	GET  /api/v1/stats                         queue/runner/cache counters
//	GET  /healthz
//
// SIGINT/SIGTERM drain gracefully: admission stops (new sweeps get
// 503), queued runs finish, then the process exits.
package main

import (
	"context"
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
		addr    = flag.String("addr", ":8344", "listen address")
		cache   = flag.String("cache", "widir-cache", "content-addressed result cache directory")
		workers = flag.Int("workers", 4, "simulation workers")
		queue   = flag.Int("queue", 256, "max queued runs across all clients")
		smoke   = flag.Bool("smoke", false, "run the self-test (simulate, restart, kill -9 mid-sweep, verify repeats are fully cache-served) and exit")

		cacheMax = flag.Int64("cache-max-bytes", 0, "LRU cache budget in bytes (0 = unbounded)")
	)
	flag.Parse()

	if *smoke {
		if err := runSmoke(); err != nil {
			fmt.Fprintf(os.Stderr, "widir-serve: smoke: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("widir-serve: smoke ok")
		return
	}

	s, err := serve.New(serve.Config{
		CacheDir:      *cache,
		Workers:       *workers,
		MaxQueue:      *queue,
		CacheMaxBytes: *cacheMax,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "widir-serve: %v\n", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "widir-serve: listening on %s, cache %s, %d workers, queue %d\n",
		*addr, *cache, *workers, *queue)

	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "widir-serve: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "widir-serve: draining (queued runs will finish; new sweeps get 503)")
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "widir-serve: %v\n", err)
		os.Exit(1)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	httpSrv.Shutdown(shutCtx)
	fmt.Fprintln(os.Stderr, "widir-serve: drained")
}

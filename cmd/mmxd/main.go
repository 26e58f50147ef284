// Command mmxd is the long-running simulation daemon: it serves benchmark
// runs of the simulated Pentium-with-MMX over HTTP/JSON, caching compiled
// programs across requests and draining gracefully on SIGTERM.
//
// Usage:
//
//	mmxd                        # serve on :8931
//	mmxd -addr 127.0.0.1:9000   # custom listen address
//	mmxd -cache 128 -queue 256  # bigger artifact cache / admission queue
//	mmxd -timeout 30s           # default per-request deadline
//	mmxd -result-cache 1024     # bigger result cache (0 disables)
//	mmxd -result-cache-dir /var/cache/mmxd   # results survive restarts
//	mmxd -result-cache-max-bytes 64000000    # bound the spill directory
//	mmxd -warm-suite trace      # prefetch the suite table before serving
//	                            # (any dispatch name: all run one interpreter)
//	mmxd -tenant-rate 10 -tenant-concurrent 4   # per-tenant quotas
//	mmxd -campaign-dir /var/lib/mmxd/campaigns  # persist sweep artifacts
//
// Endpoints: POST /run, POST /asm, POST /campaign (plus GET/DELETE
// /campaign/{id} and GET /campaign/{id}/events), GET /table, GET /healthz,
// GET /metrics. See
// internal/server for the request and response schemas, and the README's
// "Running mmxd" section for examples.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mmxdsp/internal/core"
	"mmxdsp/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8931", "listen address")
		cacheSize = flag.Int("cache", 64, "compiled-program cache entries (LRU)")
		workers   = flag.Int("workers", 0, "max concurrent simulations (0 = one per core)")
		queue     = flag.Int("queue", 64, "admission-queue depth before 429")
		timeout   = flag.Duration("timeout", 2*time.Minute, "default per-request deadline (0 = none)")
		maxInstrs = flag.Int64("max-instrs", 0, "server-wide instruction-budget cap (0 = unlimited)")
		resCache  = flag.Int("result-cache", 512, "result-cache entries (LRU of response bytes; 0 disables)")
		resDir    = flag.String("result-cache-dir", "", "spill cached results here so they survive restarts")
		resBytes  = flag.Int64("result-cache-max-bytes", 256<<20, "spill-directory size bound; oldest results evicted beyond it (0 = unlimited)")
		resFiles  = flag.Int("result-cache-max-files", 8192, "spill-directory file-count bound (0 = unlimited)")
		grace     = flag.Duration("grace", 30*time.Second, "shutdown grace period for in-flight requests")
		warmSuite = flag.String("warm-suite", "", "prefetch the whole-suite table before serving; the value lists dispatch names (comma-separated, e.g. trace), which all name the one interpreter")

		maxSource    = flag.Int("max-source-bytes", 0, "largest /asm source listing accepted (0 = 4 MiB default)")
		asmMaxInstrs = flag.Int64("asm-max-instrs", 0, "instruction-budget cap for /asm runs (0 = default, -1 = uncapped)")
		tenantRate   = flag.Float64("tenant-rate", 0, "per-tenant requests/sec (token bucket; 0 disables tenant limits)")
		tenantBurst  = flag.Int("tenant-burst", 0, "per-tenant burst size (0 = max(1, tenant-rate))")
		tenantConc   = flag.Int("tenant-concurrent", 0, "per-tenant concurrent-run cap (0 = unlimited)")
		tenantQuota  = flag.Int64("tenant-instr-quota", 0, "per-tenant simulated-instruction quota per window (0 = unlimited)")
		tenantWindow = flag.Duration("tenant-window", 0, "instruction-quota window (0 = 1m)")

		campaignDir       = flag.String("campaign-dir", "", "persist completed campaigns' sensitivity artifacts here")
		campaignMaxPoints = flag.Int("campaign-max-points", 0, "largest expanded campaign grid accepted (0 = 4096)")
		campaignWorkers   = flag.Int("campaign-workers", 0, "concurrent points per campaign (0 = 4)")
		campaignMaxActive = flag.Int("campaign-max-active", 0, "concurrently running campaigns before 429 (0 = 4)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: mmxd [flags]")
		os.Exit(2)
	}

	// The flag speaks "0 = off"; the Config zero value means "default", so
	// off maps to the negative sentinel.
	resEntries := *resCache
	if resEntries <= 0 {
		resEntries = -1
	}
	srv := server.New(server.Config{
		CacheEntries:       *cacheSize,
		Workers:            *workers,
		QueueDepth:         *queue,
		DefaultTimeout:     *timeout,
		MaxInstrsCap:       *maxInstrs,
		ResultCacheEntries: resEntries,
		ResultCacheDir:     *resDir,

		ResultCacheSpillMaxBytes: *resBytes,
		ResultCacheSpillMaxFiles: *resFiles,

		MaxSourceBytes:  *maxSource,
		AsmMaxInstrsCap: *asmMaxInstrs,

		CampaignDir:       *campaignDir,
		CampaignMaxPoints: *campaignMaxPoints,
		CampaignWorkers:   *campaignWorkers,
		CampaignMaxActive: *campaignMaxActive,
		Tenant: server.TenantLimits{
			Rate:          *tenantRate,
			Burst:         *tenantBurst,
			MaxConcurrent: *tenantConc,
			InstrQuota:    *tenantQuota,
			Window:        *tenantWindow,
		},
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	if *warmSuite != "" {
		for _, m := range strings.Split(*warmSuite, ",") {
			if err := core.CheckDispatch(strings.TrimSpace(m)); err != nil {
				log.Fatalf("mmxd: -warm-suite: %v", err)
			}
		}
		start := time.Now()
		log.Printf("mmxd: warming suite table")
		if err := srv.WarmSuite(context.Background()); err != nil {
			log.Fatalf("mmxd: -warm-suite: %v", err)
		}
		log.Printf("mmxd: suite warm in %.1fs", time.Since(start).Seconds())
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("mmxd: serving on %s (cache=%d results=%d queue=%d timeout=%s)",
			*addr, *cacheSize, resEntries, *queue, *timeout)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		log.Fatalf("mmxd: serve: %v", err)
	case sig := <-sigCh:
		// Graceful drain: stop advertising health, refuse new work, let
		// requests already admitted finish within the grace period.
		log.Printf("mmxd: %v: draining (grace %s)", sig, *grace)
		srv.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("mmxd: shutdown: %v", err)
			_ = httpSrv.Close()
			os.Exit(1)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("mmxd: serve: %v", err)
		}
		log.Printf("mmxd: drained cleanly")
	}
}

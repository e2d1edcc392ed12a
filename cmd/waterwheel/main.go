// Command waterwheel runs an embedded Waterwheel deployment and serves it
// over TCP (insert / query / flush / stats), playing the role of
// the paper's full Storm topology in a single process.
//
// Usage:
//
//	waterwheel -addr 127.0.0.1:7070 -nodes 4
//
// Clients connect with cmd/wwql or the library's waterwheel.Dial.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"waterwheel"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7070", "listen address")
		nodes      = flag.Int("nodes", 1, "simulated cluster nodes")
		chunkMB    = flag.Int64("chunk-mb", 16, "chunk size in MiB")
		cacheMB    = flag.Int64("cache-mb", 1024, "query-server cache in MiB")
		balanceMs  = flag.Int64("balance-ms", 5000, "adaptive partitioning cadence (0 = off)")
		dataDir    = flag.String("data-dir", "", "persist chunks/WAL/metadata here (survives restarts)")
		durability = flag.String("durability", "", "insert ack policy with -data-dir: ack-on-write (default), ack-on-fsync (group commit), interval")
		fsyncMs    = flag.Int64("fsync-interval-ms", 50, "background fsync cadence for -durability interval")
		seed       = flag.Int64("seed", 0, "placement/sampling seed")
		httpAddr   = flag.String("http", "", "serve /metrics and /debug/waterwheel on this address (empty = off)")
	)
	flag.Parse()

	db, err := waterwheel.Open(waterwheel.Options{
		Nodes:                 *nodes,
		ChunkBytes:            *chunkMB << 20,
		CacheBytes:            *cacheMB << 20,
		BalanceIntervalMillis: *balanceMs,
		DataDir:               *dataDir,
		Durability:            *durability,
		FsyncIntervalMillis:   *fsyncMs,
		Seed:                  *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "waterwheel: open:", err)
		os.Exit(1)
	}
	ns, err := db.Serve(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "waterwheel: listen:", err)
		os.Exit(1)
	}
	fmt.Printf("waterwheel serving on %s (%d nodes)\n", ns.Addr, *nodes)
	if *httpAddr != "" {
		go func() {
			fmt.Printf("waterwheel introspection on http://%s/metrics and /debug/waterwheel\n", *httpAddr)
			if err := http.ListenAndServe(*httpAddr, db.DebugHandler()); err != nil {
				fmt.Fprintln(os.Stderr, "waterwheel: http:", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("waterwheel: shutting down")
	ns.Close()
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "waterwheel: close:", err)
		os.Exit(1)
	}
}

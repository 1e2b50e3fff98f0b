// Command p4rpd runs a simulated P4runpro switch with its control plane and
// serves the control protocol over TCP — the counterpart of running the
// prototype's control plane on the switch CPU.
//
// With -wal DIR the control plane is durable: every mutation is journaled
// to a write-ahead log under DIR before it is applied, boot recovers the
// previous state by snapshot-load + replay, and an orderly shutdown
// (SIGINT/SIGTERM) flushes and closes the journal so even the sync-interval
// tail survives. `p4rpctl snapshot` compacts the log at runtime.
//
// With -fleet N it instead provisions N member switches behind one fleet
// controller (placement, health checking, failover) and serves the fleet.*
// verbs — one daemon standing in for a sharded multi-switch deployment.
// Combined with -wal, each member journals into its own subdirectory
// (DIR/m1, DIR/m2, ...), and a restarted daemon recovers every member's
// programs instead of rebooting the fleet blank.
//
// With -pprof ADDR an opt-in net/http/pprof listener serves Go runtime
// profiles (CPU, heap, goroutine, mutex contention) — the tool for digging
// into the lock-free packet path under load. It is off by default and should
// stay bound to localhost.
//
// With -metrics-addr ADDR an opt-in HTTP listener serves /metrics
// (Prometheus text exposition of the controller's registry), /telemetry
// (JSON scrape of the sweep engine plus sampled packet postcards), and
// /healthz. The daemon always runs a telemetry sweep engine (drive it with
// `p4rpctl top` / `p4rpctl trace`); -postcards N samples one in every N
// packets into the postcard ring (default 1024, 0 disables sampling).
//
// Usage:
//
//	p4rpd [-listen :9800] [-r N] [-wal DIR] [-wal-sync always|interval|none] [-pprof 127.0.0.1:6060] [-metrics-addr 127.0.0.1:9801] [-postcards 1024]
//	p4rpd [-listen :9800] [-r N] [-wal DIR] -fleet 3 [-replicas 2]
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux; served only with -pprof
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/core"
	"p4runpro/internal/fleet"
	"p4runpro/internal/journal"
	"p4runpro/internal/obs"
	"p4runpro/internal/obs/trace"
	"p4runpro/internal/rmt"
	"p4runpro/internal/telemetry"
	"p4runpro/internal/wire"
)

func main() {
	listen := flag.String("listen", ":9800", "control protocol listen address")
	maxR := flag.Int("r", 1, "maximum recirculation iterations")
	fleetN := flag.Int("fleet", 0, "run a fleet of N member switches instead of a single switch")
	replicas := flag.Int("replicas", 1, "fleet mode: default replicas per deployed unit")
	walDir := flag.String("wal", "", "write-ahead journal directory (empty disables durability)")
	walSync := flag.String("wal-sync", "always", "journal sync policy: always, interval, or none")
	walSyncIvl := flag.Duration("wal-sync-interval", 100*time.Millisecond, "fsync cadence for -wal-sync interval")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty disables)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /telemetry, /healthz over HTTP on this address (empty disables)")
	postcards := flag.Int("postcards", 1024, "sample one in every N packets as a postcard (0 disables)")
	sweepIvl := flag.Duration("sweep-interval", time.Second, "telemetry sweep cadence")
	traceOn := flag.Bool("trace", false, "record distributed operation traces (inspect with `p4rpctl ops`)")
	traceCap := flag.Int("trace-capacity", 256, "completed traces retained in memory")
	flightCap := flag.Int("flightrec", 512, "flight-recorder ring size (events; dump with SIGQUIT or `p4rpctl ops --flightrec`)")
	flag.Parse()

	// The flight recorder always runs (recording is allocation-free); span
	// tracing is opt-in via -trace. One tracer is shared by every component
	// in the process — in fleet mode that includes all members, so a deploy's
	// fan-out halves land in the same store the fleet merges from.
	tracer := trace.New(trace.Options{Capacity: *traceCap})
	tracer.SetEnabled(*traceOn)
	flight := trace.NewFlightRecorder(*flightCap)

	if *pprofAddr != "" {
		go func() {
			log.Printf("p4rpd: pprof listening on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("p4rpd: pprof listener: %v", err)
			}
		}()
	}

	opt := core.DefaultOptions()
	opt.MaxRecirc = *maxR
	logger := log.New(os.Stderr, "p4rpd: ", log.LstdFlags)

	var jopt journal.Options
	if *walDir != "" {
		pol, err := journal.ParsePolicy(*walSync)
		if err != nil {
			log.Fatalf("p4rpd: %v", err)
		}
		jopt = journal.Options{Sync: pol, SyncInterval: *walSyncIvl, Flight: flight}
	}

	// newController builds one control plane, recovering from (and attaching)
	// a journal under dir when -wal is set. Recovery attaches tracing after
	// replay and leaves one boot event in the flight ring; a recovered boot
	// also dumps the ring so the replay is on record even if the process
	// dies again before anyone asks.
	newController := func(dir string) (*controlplane.Controller, error) {
		if *walDir == "" {
			ct, err := controlplane.New(rmt.DefaultConfig(), opt)
			if err == nil {
				ct.SetTracing(tracer, flight)
			}
			return ct, err
		}
		ct, err := controlplane.RecoverWithTracing(dir, rmt.DefaultConfig(), opt, jopt, tracer, flight)
		if err == nil && len(ct.Programs()) > 0 {
			flight.WriteJSON(os.Stderr, "boot") //nolint:errcheck // best-effort dump
		}
		return ct, err
	}

	// switchServer builds one switch's wire server — the verb table, traced,
	// with its telemetry sweep engine's verbs. The single-switch daemon
	// listens on it; in fleet mode it is an in-process member, never
	// listened on. journals and engines collect every attached journal and
	// sweep engine so shutdown can flush and stop them.
	var journals []*journal.Journal
	var engines []*telemetry.Engine
	switchServer := func(ct *controlplane.Controller) *wire.Server {
		if j := ct.Journal(); j != nil {
			journals = append(journals, j)
		}
		ct.SW.EnablePostcards(*postcards, 0)
		eng := telemetry.New(ct, telemetry.Options{Interval: *sweepIvl})
		eng.Start()
		engines = append(engines, eng)
		s := wire.NewServer(ct, logger)
		s.Tracer, s.Flight = tracer, flight
		telemetry.RegisterWire(s, eng)
		return s
	}
	serveMetrics := func(reg *obs.Registry, srv *wire.Server) {
		if *metricsAddr == "" {
			return
		}
		go func() {
			log.Printf("p4rpd: metrics on http://%s/metrics (telemetry: /telemetry, traces: /debug/traces, health: /healthz)", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, telemetry.Handler(reg, srv)); err != nil {
				log.Printf("p4rpd: metrics listener: %v", err)
			}
		}()
	}

	var srv *wire.Server
	if *fleetN > 0 {
		f := fleet.New(fleet.Options{
			Replicas: *replicas,
			Logger:   logger,
		})
		f.SetTracing(tracer, flight)
		for i := 0; i < *fleetN; i++ {
			name := fmt.Sprintf("m%d", i+1)
			ct, err := newController(filepath.Join(*walDir, name))
			if err != nil {
				log.Fatalf("p4rpd: provision member %d: %v", i+1, err)
			}
			ms := switchServer(ct)
			if err := f.AddMember(name, ms); err != nil {
				log.Fatalf("p4rpd: add member %d: %v", i+1, err)
			}
			if n := len(ct.Programs()); n > 0 {
				logger.Printf("member %s recovered %d programs from journal", name, n)
			}
		}
		f.Start()
		defer f.Stop()
		srv = fleet.NewWireServer(f, logger)
		srv.Tracer, srv.Flight = tracer, flight
		// The fleet daemon's HTTP surface exposes the fleet registry; the
		// per-program fan-in lives behind `p4rpctl fleet top`.
		serveMetrics(f.Obs, srv)
		addr, err := srv.Listen(*listen)
		if err != nil {
			log.Fatalf("p4rpd: listen: %v", err)
		}
		fmt.Printf("p4rpd: fleet of %d members provisioned (replicas=%d), control plane on %s\n",
			*fleetN, *replicas, addr)
		fmt.Println("p4rpd: drive it with `p4rpctl fleet ...`; metrics via `p4rpctl metrics`")
	} else {
		ct, err := newController(*walDir)
		if err != nil {
			log.Fatalf("p4rpd: provision: %v", err)
		}
		srv = switchServer(ct)
		serveMetrics(ct.Obs, srv)
		addr, err := srv.Listen(*listen)
		if err != nil {
			log.Fatalf("p4rpd: listen: %v", err)
		}
		fmt.Printf("p4rpd: switch provisioned (%d RPBs), control plane on %s\n", ct.Plane.M, addr)
		if *walDir != "" {
			fmt.Printf("p4rpd: journaling to %s (sync=%s); %d programs recovered\n",
				*walDir, *walSync, len(ct.Programs()))
		}
		fmt.Println("p4rpd: metrics served via `p4rpctl metrics` (Prometheus text or json)")
	}

	// SIGQUIT dumps the flight recorder to stderr and keeps running — the
	// "what just happened" lever for a wedged or misbehaving daemon.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			flight.WriteJSON(os.Stderr, "sigquit") //nolint:errcheck // best-effort dump
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("p4rpd: shutting down")
	srv.Close()
	for _, eng := range engines {
		eng.Stop()
	}
	// Flush and close every journal so an orderly stop never loses the
	// sync-interval tail.
	for _, j := range journals {
		if err := j.Close(); err != nil {
			logger.Printf("journal %s: close: %v", j.Dir(), err)
		}
	}
}

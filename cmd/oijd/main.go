// Command oijd serves an online interval join over TCP — the repository's
// OpenMLDB-style feature-serving daemon. Clients stream probe data and
// send base frames as feature requests (see internal/wire for the
// protocol; internal/server.Client is a ready-made Go client).
//
// The join is declared in the OpenMLDB SQL dialect:
//
//	oijd -addr :7781 -sql 'SELECT sum(amount) OVER w FROM requests
//	    WINDOW w AS (UNION orders PARTITION BY user ORDER BY ts
//	    ROWS_RANGE BETWEEN 1h PRECEDING AND CURRENT ROW LATENESS 5s)'
//
// or with explicit flags (-pre, -agg, ...) when no SQL is given.
//
// Overload control is configured with -admission (block | shed-probes |
// reject), -deadline (per-request NACK deadline), -mem-cap (buffered-probe
// ceiling) and -slow-grace (slow-consumer eviction grace); see the README's
// "Operating oijd" section for the degradation ladder they form.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"oij/internal/server"
)

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "oijd: %v\n", err)
		os.Exit(2)
	}

	srv, err := server.New(o.cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oijd: %v\n", err)
		os.Exit(2)
	}
	if o.banner != "" {
		fmt.Printf("oijd: %s\n", o.banner)
	}
	if o.cfg.WALPath != "" {
		n, err := srv.Recover()
		if err != nil {
			fmt.Fprintf(os.Stderr, "oijd: recovering %s: %v\n", o.cfg.WALPath, err)
			os.Exit(1)
		}
		_, skipped, truncated := srv.WALStats()
		fmt.Printf("oijd: recovered %d probes from %s (%d corrupt frames skipped, %d torn bytes truncated, sync=%s)\n",
			n, o.cfg.WALPath, skipped, truncated, o.cfg.WALSync)
	}
	bound, err := srv.Listen(o.addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oijd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("oijd: serving %s with %s (%d joiners) on %s\n",
		o.cfg.Engine.Agg, o.cfg.Algorithm, o.cfg.Engine.Joiners, bound)
	fmt.Printf("oijd: overload: admission=%s deadline=%s mem-cap=%d\n",
		o.cfg.Admission, o.cfg.RequestDeadline, o.cfg.MemCapProbes)
	if o.cfg.ReplListenAddr != "" || o.cfg.StandbyOf != "" {
		lease := o.cfg.ReplLease
		if lease == 0 {
			lease = 3 * time.Second
		}
		if o.cfg.StandbyOf != "" {
			fmt.Printf("oijd: hot standby of %s (lease %s): applying the primary's WAL, refusing writes until promoted\n",
				o.cfg.StandbyOf, lease)
		} else {
			addr := o.cfg.ReplListenAddr
			if a := srv.ReplAddr(); a != nil {
				addr = a.String()
			}
			fmt.Printf("oijd: primary replicating to standbys on %s (lease %s, max-lag %d bytes)\n",
				addr, lease, o.cfg.MaxReplLag)
		}
	}
	if a := srv.AdminAddr(); a != nil {
		fmt.Printf("oijd: observability on http://%s (/metrics /statusz /tracez /timeline /healthz /debug/flightrecorder /debug/pprof)\n", a)
	}
	if o.cfg.ProfileDir != "" {
		fmt.Printf("oijd: continuous profiling to %s (%s CPU slice every %s, see /profilez)\n",
			o.cfg.ProfileDir, o.cfg.ProfileCPUSlice, o.cfg.ProfilePeriod)
	}
	if o.cfg.TraceSampleN > 0 {
		fmt.Printf("oijd: tracing every %d. request (see /tracez)\n", o.cfg.TraceSampleN)
	}
	if o.cfg.SLOP99 > 0 || o.cfg.SLOShedRate > 0 || o.cfg.SLOWatermarkLag > 0 || o.cfg.SLOMemLevel > 0 {
		fmt.Printf("oijd: slo: window=%s p99=%s shed-rate=%g lag=%s mem-level=%d\n",
			o.cfg.SLOWindow, o.cfg.SLOP99, o.cfg.SLOShedRate, o.cfg.SLOWatermarkLag, o.cfg.SLOMemLevel)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("oijd: shutting down")
	srv.Shutdown()
	fmt.Printf("oijd: served %d tuples\n", srv.Served())
}

// Command phctl inspects a running peerhoodd over the wire: it dials the
// daemon's information port (the same protocol PeerHood devices use to
// fetch each other's data, fig 3.7) and prints the device descriptor,
// registered services, neighbourhood routing table, and the storage digest
// driving delta neighbourhood sync (epoch, generation, entry count, table
// hash). The watch subcommand instead dials the library engine port,
// subscribes to the neighbourhood event stream (EVENT_SUBSCRIBE), and
// tails device/link/handover events to stdout until interrupted.
//
// Usage:
//
//	phctl -addr 127.0.0.1:7001 [device|services|neighborhood|devices|digest|all]
//	phctl -addr 127.0.0.1:7001 watch [event-type ...]
//	phctl -addr 127.0.0.1:7001 stats [prefix]
//	phctl -addr 127.0.0.1:7001 [-tail n] trace
//
// The stats subcommand fetches the daemon's telemetry registry snapshot
// (STATS_REQUEST) and prints one Prometheus-style series per line,
// optionally filtered to names starting with prefix. The trace subcommand
// subscribes to the daemon's span stream (TRACE_SUBSCRIBE), replays the
// last -tail recorded spans, and tails new ones as handover / sync /
// reconnect lifecycles complete.
//
// The devices subcommand fetches the neighbourhood through the versioned
// sync exchange (negotiating sibling advertisements) and renders it
// grouped by cross-interface device identity: one block per physical
// device, one row per radio interface with its technology.
//
// Event types for watch: device-appeared, device-lost, link-degrading,
// link-recovered, link-lost, handover-started, handover-completed,
// handover-failed, vertical-handover. No types means everything;
// vertical-handover lines (bearer-technology changes) are marked with ⇅.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"os"
	"sort"
	"strconv"
	"time"

	"peerhood/internal/device"
	"peerhood/internal/events"
	"peerhood/internal/phproto"
)

func main() {
	addr := flag.String("addr", "", "daemon host:port (required)")
	timeout := flag.Duration("timeout", 5*time.Second, "dial/read timeout")
	tail := flag.Uint("tail", 32, "spans to replay before tailing (trace)")
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "phctl: -addr is required")
		flag.Usage()
		os.Exit(2)
	}
	what := "all"
	if flag.NArg() > 0 {
		what = flag.Arg(0)
	}

	if what == "watch" {
		if err := watch(*addr, *timeout, flag.Args()[1:]); err != nil {
			log.Fatal(err)
		}
		return
	}
	if what == "stats" {
		prefix := ""
		if flag.NArg() > 1 {
			prefix = flag.Arg(1)
		}
		if err := stats(*addr, *timeout, prefix); err != nil {
			log.Fatal(err)
		}
		return
	}
	if what == "trace" {
		if err := trace(*addr, *timeout, uint32(*tail)); err != nil {
			log.Fatal(err)
		}
		return
	}

	conn, err := dialPort(*addr, device.PortDaemon, *timeout)
	if err != nil {
		log.Fatalf("dialing daemon: %v", err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(*timeout))

	if what == "device" || what == "all" {
		info, err := fetch[*phproto.DeviceInfo](conn, phproto.InfoDevice)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("device: %s\n  addr:     %v\n  mobility: %v\n  checksum: %d\n",
			info.Info.Name, info.Info.Addr, info.Info.Mobility, info.Info.Checksum)
	}
	if what == "services" || what == "all" {
		svcs, err := fetch[*phproto.ServiceList](conn, phproto.InfoServices)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("services (%d):\n", len(svcs.Services))
		for _, s := range svcs.Services {
			fmt.Printf("  %v\n", s)
		}
	}
	if what == "devices" {
		if err := showDevices(conn); err != nil {
			log.Fatal(err)
		}
		return
	}
	if what == "neighborhood" || what == "all" {
		nb, err := fetch[*phproto.Neighborhood](conn, phproto.InfoNeighborhood)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("neighbourhood (%d devices):\n", len(nb.Entries))
		fmt.Printf("  %-16s %-28s %5s  %-28s %7s\n", "NAME", "ADDR", "JUMPS", "BRIDGE", "QUALITY")
		for _, e := range nb.Entries {
			bridge := "-"
			if !e.Bridge.IsZero() {
				bridge = e.Bridge.String()
			}
			fmt.Printf("  %-16s %-28s %5d  %-28s %7d\n",
				e.Info.Name, e.Info.Addr, e.Jumps, bridge, e.QualitySum)
		}
	}
	if what == "digest" || what == "all" {
		dg, err := fetch[*phproto.DigestInfo](conn, phproto.InfoDigest)
		if err != nil {
			// Daemons predating delta sync hang up on InfoDigest; "all"
			// against one degrades instead of failing after the sections
			// that worked.
			if what == "all" {
				fmt.Printf("storage digest: not supported by this daemon (%v)\n", err)
				return
			}
			log.Fatal(err)
		}
		fmt.Printf("storage digest:\n")
		fmt.Printf("  generation: %d\n", dg.Gen)
		fmt.Printf("  epoch:      %016x\n", dg.Epoch)
		fmt.Printf("  entries:    %d\n", dg.Entries)
		fmt.Printf("  table hash: %016x\n", dg.Hash)
	}
}

// showDevices renders the responder's neighbourhood grouped by
// cross-interface device identity. It negotiates the sibling-carrying
// entry form through a first-contact versioned sync request; a legacy
// daemon (which cannot advertise identities) still answers it with a FULL
// table whose rows simply group as singletons.
func showDevices(conn net.Conn) error {
	if err := phproto.Write(conn, &phproto.NeighborhoodSyncRequest{Flags: phproto.SyncFlagSiblings}); err != nil {
		return fmt.Errorf("requesting sync: %w", err)
	}
	resp, err := phproto.ReadExpect[*phproto.NeighborhoodSync](conn)
	if err != nil {
		return fmt.Errorf("reading sync (legacy daemon? try 'neighborhood'): %w", err)
	}

	groups := make(map[device.ID][]phproto.NeighborEntry)
	for _, en := range resp.Entries {
		id := en.Info.Identity()
		groups[id] = append(groups[id], en)
	}
	ids := make([]device.ID, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	fmt.Printf("devices (%d identities, %d interfaces):\n", len(groups), len(resp.Entries))
	for _, id := range ids {
		ens := groups[id]
		sort.Slice(ens, func(i, j int) bool { return ens[i].Info.Addr.Less(ens[j].Info.Addr) })
		fmt.Printf("%s (%d interface(s))\n", ens[0].Info.Name, len(ens))
		fmt.Printf("  %-5s %-28s %5s  %-28s %7s %8s\n", "TECH", "ADDR", "JUMPS", "BRIDGE", "QUALITY", "MOBILITY")
		for _, en := range ens {
			bridge := "-"
			if !en.Bridge.IsZero() {
				bridge = en.Bridge.String()
			}
			fmt.Printf("  %-5s %-28s %5d  %-28s %7d %8s\n",
				en.Info.Addr.Tech, en.Info.Addr, en.Jumps, bridge, en.QualitySum, en.Info.Mobility)
		}
	}
	return nil
}

// watch subscribes to the daemon's neighbourhood event stream on the
// library engine port and tails events to stdout. typeNames filters the
// subscription; empty means everything. It first asks for span-stamped
// events (EventSubFlagSpans); a legacy daemon rejects the flagged
// subscribe's trailing byte and hangs up, so on a failed handshake it
// redials and re-subscribes flagless.
func watch(addr string, timeout time.Duration, typeNames []string) error {
	mask, err := maskFor(typeNames)
	if err != nil {
		return err
	}
	conn, err := subscribeEvents(addr, timeout, uint32(mask), phproto.EventSubFlagSpans)
	if err != nil {
		legacy, lerr := subscribeEvents(addr, timeout, uint32(mask), 0)
		if lerr != nil {
			return fmt.Errorf("subscribing: %w", err)
		}
		fmt.Fprintln(os.Stderr, "daemon predates trace spans; watching without span IDs")
		conn = legacy
	}
	defer conn.Close()

	fmt.Fprintf(os.Stderr, "watching %s (mask %#x); ctrl-c to stop\n", addr, uint32(mask))
	for {
		ev, err := phproto.ReadExpect[*phproto.EventNotice](conn)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("event stream: %w", err)
		}
		ts := time.Unix(0, ev.UnixNanos).Format("2006-01-02 15:04:05.000")
		// Bearer changes are the events an adaptive application reacts to;
		// mark them so they stand out of the stream.
		marker := "  "
		if events.Type(ev.Type) == events.VerticalHandover {
			marker = "⇅ "
		}
		line := fmt.Sprintf("%s%s #%-6d %-19s %v", marker, ts, ev.Seq, events.Type(ev.Type), ev.Addr)
		if ev.Quality >= 0 {
			line += fmt.Sprintf(" q=%d", ev.Quality)
		}
		if ev.TimeToThreshold > 0 {
			line += fmt.Sprintf(" ttt=%s", ev.TimeToThreshold)
		}
		if ev.Span != 0 {
			line += fmt.Sprintf(" span=%016x", ev.Span)
		}
		if ev.Detail != "" {
			line += " " + ev.Detail
		}
		fmt.Println(line)
	}
}

// subscribeEvents dials the engine port and completes one EVENT_SUBSCRIBE
// handshake, returning the connection with deadlines cleared for tailing.
func subscribeEvents(addr string, timeout time.Duration, mask uint32, flags uint8) (net.Conn, error) {
	conn, err := dialPort(addr, device.PortEngine, timeout)
	if err != nil {
		return nil, fmt.Errorf("dialing engine port: %w", err)
	}
	// The handshake is bounded; the tail itself is not.
	_ = conn.SetDeadline(time.Now().Add(timeout))
	if err := phproto.Write(conn, &phproto.EventSubscribe{Mask: mask, Flags: flags}); err != nil {
		_ = conn.Close()
		return nil, err
	}
	ack, err := phproto.ReadExpect[*phproto.Ack](conn)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("awaiting subscribe ack: %w", err)
	}
	if !ack.OK {
		_ = conn.Close()
		return nil, fmt.Errorf("subscription refused: %s", ack.Reason)
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, nil
}

// stats fetches one telemetry snapshot from the daemon information port and
// prints it in Prometheus text style, one series per line.
func stats(addr string, timeout time.Duration, prefix string) error {
	conn, err := dialPort(addr, device.PortDaemon, timeout)
	if err != nil {
		return fmt.Errorf("dialing daemon: %w", err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(timeout))

	if err := phproto.Write(conn, &phproto.StatsRequest{Prefix: prefix}); err != nil {
		return fmt.Errorf("requesting stats: %w", err)
	}
	st, err := phproto.ReadExpect[*phproto.Stats](conn)
	if err != nil {
		// A legacy daemon closes the connection on the unknown command.
		return fmt.Errorf("reading stats (daemon predates telemetry?): %w", err)
	}
	fmt.Printf("# %s at %s: %d series\n",
		addr, time.Unix(0, st.UnixNanos).Format(time.RFC3339Nano), len(st.Entries))
	for _, en := range st.Entries {
		fmt.Printf("%s %s\n", en.Name, formatStat(math.Float64frombits(en.Value)))
	}
	return nil
}

// formatStat renders counters as integers and everything else in the
// shortest float form, matching Prometheus text conventions.
func formatStat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// trace subscribes to the daemon's span stream on the engine port, replays
// the last tail recorded spans, then tails live spans until interrupted.
func trace(addr string, timeout time.Duration, tail uint32) error {
	conn, err := dialPort(addr, device.PortEngine, timeout)
	if err != nil {
		return fmt.Errorf("dialing engine port: %w", err)
	}
	defer conn.Close()

	_ = conn.SetDeadline(time.Now().Add(timeout))
	if err := phproto.Write(conn, &phproto.TraceSubscribe{Tail: tail}); err != nil {
		return fmt.Errorf("subscribing: %w", err)
	}
	ack, err := phproto.ReadExpect[*phproto.Ack](conn)
	if err != nil {
		return fmt.Errorf("awaiting trace ack (daemon predates telemetry?): %w", err)
	}
	if !ack.OK {
		return fmt.Errorf("trace subscription refused: %s", ack.Reason)
	}
	_ = conn.SetDeadline(time.Time{})

	fmt.Fprintf(os.Stderr, "tracing %s (replaying up to %d spans); ctrl-c to stop\n", addr, tail)
	for {
		sp, err := phproto.ReadExpect[*phproto.TraceSpan](conn)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("span stream: %w", err)
		}
		start := time.Unix(0, sp.StartUnixNanos)
		parent := "root"
		if sp.Parent != 0 {
			parent = fmt.Sprintf("%016x", sp.Parent)
		}
		line := fmt.Sprintf("%s %016x<-%s %-18s %s dur=%s",
			start.Format("2006-01-02 15:04:05.000"), sp.ID, parent, sp.Name, sp.Addr,
			time.Duration(sp.EndUnixNanos-sp.StartUnixNanos))
		if sp.Detail != "" {
			line += " " + sp.Detail
		}
		fmt.Println(line)
	}
}

// maskFor resolves event-type names to a subscription mask.
func maskFor(names []string) (events.Mask, error) {
	if len(names) == 0 {
		return 0, nil
	}
	byName := make(map[string]events.Type)
	for t := events.DeviceAppeared; t.Valid(); t++ {
		byName[t.String()] = t
	}
	var types []events.Type
	for _, n := range names {
		t, ok := byName[n]
		if !ok {
			return 0, fmt.Errorf("unknown event type %q (have %v)", n, keys(byName))
		}
		types = append(types, t)
	}
	return events.MaskOf(types...), nil
}

func keys(m map[string]events.Type) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// dialPort opens a TCP connection to the daemon process and sends the
// tcpnet port preamble selecting a logical port (daemon information port
// or library engine port).
func dialPort(addr string, port uint16, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	var preamble [2]byte
	binary.BigEndian.PutUint16(preamble[:], port)
	if _, err := c.Write(preamble[:]); err != nil {
		_ = c.Close()
		return nil, err
	}
	var ok [1]byte
	if _, err := io.ReadFull(c, ok[:]); err != nil {
		_ = c.Close()
		return nil, err
	}
	if ok[0] != 1 {
		_ = c.Close()
		return nil, fmt.Errorf("port %d refused (is %s a peerhoodd?)", port, addr)
	}
	return c, nil
}

// fetch sends one InfoRequest and decodes the typed response.
func fetch[T phproto.Message](conn net.Conn, kind phproto.InfoKind) (T, error) {
	var zero T
	if err := phproto.Write(conn, &phproto.InfoRequest{Kind: kind}); err != nil {
		return zero, fmt.Errorf("requesting %v: %w", kind, err)
	}
	msg, err := phproto.ReadExpect[T](conn)
	if err != nil {
		return zero, fmt.Errorf("reading %v: %w", kind, err)
	}
	return msg, nil
}

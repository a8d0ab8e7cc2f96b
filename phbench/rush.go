package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"peerhood/internal/daemon"
	"peerhood/internal/device"
	"peerhood/internal/library"
	"peerhood/internal/plugin"
	"peerhood/internal/tcpnet"
)

// rush-tcp: S8's lifecycle at two closed-loop clients over real loopback
// sockets — the only workload where tcpnet, the connect handshake and
// phproto framing do most of the work.
const (
	rushDaemons  = 3
	rushClients  = 2
	rushMsgBytes = 512
	rushMsgs     = 4
	rushChurn    = 3 // every third lifecycle adds a PH_RECONNECT
	rushSetups   = 3
	rushProcs    = 1 // GOMAXPROCS while rush-tcp runs; see runRush
	rushPayloads = 16
	rushService  = "echo"

	// rushSwapWait is how long a server-side connection whose client hung
	// up waits for a PH_RECONNECT before its handler sees the error. The
	// library default (30 s) keeps every closed lifecycle's socket and
	// goroutine for 30 s: at the 11-17k lifecycles/s two clients reach on
	// loopback that is 330-510k descriptors, and dials start failing with
	// EMFILE within seconds. A reconnect lands within microseconds of the
	// old transport's close, so 250 ms still covers it.
	rushSwapWait = 250 * time.Millisecond
)

type rushNode struct {
	d   *daemon.Daemon
	lib *library.Library
	p   *tcpnet.Plugin
	tp  *tracedPlugin // nil when untraced
}

// rushFleet starts the daemons, lets them discover each other and checks
// that every daemon knows every other's echo service.
func rushFleet(rec *Recorder, tc *tcpCounters) ([]*rushNode, error) {
	var nodes []*rushNode
	fail := func(err error) ([]*rushNode, error) {
		stopFleet(nodes)
		return nil, err
	}
	plugs := make([]*tcpnet.Plugin, rushDaemons)
	for i := range plugs {
		// Inquiries wait a fixed window for UDP replies; on loopback they
		// arrive in well under a millisecond.
		p, err := tcpnet.New(tcpnet.Config{Listen: "127.0.0.1:0", InquiryWait: 40 * time.Millisecond})
		if err != nil {
			for _, q := range plugs[:i] {
				_ = q.Close()
			}
			return nil, fmt.Errorf("tcpnet plugin %d: %w", i, err)
		}
		plugs[i] = p
	}
	for i, p := range plugs {
		for j, q := range plugs {
			if i != j {
				p.AddPeer(q.Addr().MAC)
			}
		}
	}
	for i, p := range plugs {
		n := &rushNode{p: p}
		d, err := daemon.New(daemon.Config{Name: fmt.Sprintf("rush%d", i), Mobility: device.Static})
		if err != nil {
			_ = p.Close()
			return fail(err)
		}
		n.d = d
		var pl plugin.Plugin = p
		if rec != nil {
			n.tp = &tracedPlugin{Plugin: p, rec: rec, ctr: tc}
			pl = n.tp
		}
		if err := d.AddPlugin(pl); err != nil {
			_ = p.Close()
			return fail(err)
		}
		p.Instrument(d.Registry())
		if err := d.Start(false); err != nil {
			_ = p.Close()
			return fail(err)
		}
		lib, err := library.New(library.Config{Daemon: d, SwapWait: rushSwapWait})
		if err != nil {
			d.Stop()
			_ = p.Close()
			return fail(err)
		}
		n.lib = lib
		nodes = append(nodes, n)
		if err := lib.Start(); err != nil {
			return fail(err)
		}
		if _, err := lib.RegisterService(rushService, "phbench", echoHandler); err != nil {
			return fail(err)
		}
	}
	for round := 0; round < 2; round++ {
		for _, n := range nodes {
			n.d.RunDiscoveryRound()
		}
	}
	for i, n := range nodes {
		for j, m := range nodes {
			if i == j {
				continue
			}
			e, ok := n.d.Storage().Lookup(m.p.Addr())
			if !ok {
				return fail(fmt.Errorf("daemon %d never discovered daemon %d", i, j))
			}
			if _, ok := e.Info.FindService(rushService); !ok {
				return fail(fmt.Errorf("daemon %d lacks daemon %d's service list", i, j))
			}
		}
	}
	return nodes, nil
}

func stopFleet(nodes []*rushNode) {
	for _, n := range nodes {
		if n.lib != nil {
			n.lib.Stop()
		}
		n.d.Stop()
		_ = n.p.Close()
	}
}

// echoHandler answers every 512 B request with the same bytes until the
// client hangs up; it survives PH_RECONNECT because the virtual
// connection re-reads across the transport swap.
func echoHandler(vc *library.VirtualConnection, _ library.ConnectionMeta) {
	defer vc.Close()
	buf := make([]byte, rushMsgBytes)
	for {
		if _, err := io.ReadFull(vc, buf); err != nil {
			return
		}
		if _, err := vc.Write(buf); err != nil {
			return
		}
	}
}

// rushClient is one closed-loop client's private tally.
type rushClient struct {
	dial, rtt, reconnect, life Dist
	attempted, completed       int
	mismatches                 int
	errs                       []string // the first few failures, for the report
}

func (c *rushClient) note(op string, err error) {
	if len(c.errs) < 3 {
		c.errs = append(c.errs, op+": "+err.Error())
	}
}

func runRush(e *env) (*result, error) {
	// Clients and daemons share one P. With two, each hand-off between
	// goroutines on different CPUs is a cross-CPU wake-up whose cost
	// follows the host's load: on a 2-vCPU VM the lifecycle median swung
	// 72-107 µs from run to run with two Ps, 123-146 µs with one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(rushProcs))
	r := newResult()
	tc := &tcpCounters{}
	clients := make([]rushClient, rushClients)
	// Set-up is timed rushSetups times; the clients run on the last fleet
	// started.
	var nodes []*rushNode
	for s := 0; s < rushSetups; s++ {
		stopFleet(nodes)
		t0 := time.Now()
		var err error
		if nodes, err = rushFleet(e.rec, tc); err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}
	before := tc.snap()
	deadline := time.Now().Add(e.budget)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clients[w].loop(e, nodes, w, deadline)
		}(w)
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	after := tc.snap()
	stopFleet(nodes)

	var dial, rtt, reconnect Dist
	for i := range clients {
		c := &clients[i]
		dial.Merge(&c.dial)
		rtt.Merge(&c.rtt)
		reconnect.Merge(&c.reconnect)
		r.op.Merge(&c.life)
		r.attempted += c.attempted
		r.completed += c.completed
		for _, msg := range c.errs {
			fmt.Printf("# rush-tcp client %d failure: %s\n", i, msg)
		}
		if c.mismatches > 0 {
			r.problem("client %d: %d echoes came back with different bytes", i, c.mismatches)
		}
	}
	r.failed = r.attempted - r.completed
	r.add("conns_per_s", float64(r.completed)/r.elapsed.Seconds(), "1/s", r.attempted)
	r.timing("dial", &dial)
	r.timing("rtt", &rtt)
	r.timing("reconnect", &reconnect)
	var wire [5]float64 // tcpnet counts over the measured region only
	for i := range wire {
		wire[i] = float64(after[i] - before[i])
	}
	dials, dialFails, conns, bytes, writes := wire[0], wire[1], wire[2], wire[3], wire[4]
	r.layers["tcpnet.dial_fail_share"] = ratio(dialFails, dials)
	r.layers["tcpnet.wire_B_per_conn"] = ratio(bytes, conns)
	r.layers["tcpnet.writes_per_conn"] = ratio(writes, conns)
	return r, nil
}

// loop runs lifecycles until the deadline. Client w lives on daemon w and
// targets the other daemons in turn; its request payloads come from the
// seed.
func (c *rushClient) loop(e *env, nodes []*rushNode, w int, deadline time.Time) {
	src := rand.New(rand.NewPCG(uint64(e.seed), uint64(w)))
	payloads := make([][]byte, rushPayloads)
	for i := range payloads {
		payloads[i] = make([]byte, rushMsgBytes)
		for j := range payloads[i] {
			payloads[i][j] = byte(src.Uint32())
		}
	}
	resp := make([]byte, rushMsgBytes)
	home := nodes[w]
	for i := 0; time.Now().Before(deadline); i++ {
		target := nodes[(w+1+i%(rushDaemons-1))%rushDaemons].p.Addr()
		c.attempted++
		t0 := time.Now()
		if c.lifecycle(e.rec, home, target, i, payloads, resp) {
			c.completed++
			c.life.Add(us(time.Since(t0)))
		} else {
			c.life.Fail()
		}
	}
}

// echo sends one request and checks the reply byte for byte.
func (c *rushClient) echo(rec *Recorder, tr uint64, parent int, vc *library.VirtualConnection, req, resp []byte) bool {
	sp := rec.Begin("rush.echo", tr, parent)
	defer rec.End(sp)
	t0 := time.Now()
	if _, err := vc.Write(req); err != nil {
		c.note("echo write", err)
		c.rtt.Fail()
		return false
	}
	if _, err := io.ReadFull(vc, resp); err != nil {
		c.note("echo read", err)
		c.rtt.Fail()
		return false
	}
	if !bytes.Equal(req, resp) {
		c.mismatches++
		c.rtt.Fail()
		return false
	}
	c.rtt.Add(us(time.Since(t0)))
	return true
}

// lifecycle is one connection: Connect, four echoes, on every third an
// PH_RECONNECT onto a fresh transport plus one more echo, then close.
func (c *rushClient) lifecycle(rec *Recorder, home *rushNode, target device.Addr, i int, payloads [][]byte, resp []byte) bool {
	tr := rec.NewTrace()
	root := rec.Begin("rush.lifecycle", tr, -1)
	defer rec.End(root)

	t0 := time.Now()
	sp := rec.Begin("library.connect", tr, root)
	home.tp.enter(tr, sp)
	vc, err := home.lib.Connect(target, rushService)
	home.tp.leave()
	rec.End(sp)
	if err != nil {
		c.note("connect", err)
		c.dial.Fail()
		return false
	}
	c.dial.Add(us(time.Since(t0)))
	defer vc.Close()

	for m := 0; m < rushMsgs; m++ {
		if !c.echo(rec, tr, root, vc, payloads[(i*rushMsgs+m)%len(payloads)], resp) {
			return false
		}
	}
	if i%rushChurn != 0 {
		return true
	}

	t1 := time.Now()
	sp = rec.Begin("storage.lookup", tr, root)
	entry, ok := home.d.Storage().Lookup(target)
	rec.End(sp)
	route, has := entry.Best()
	if !ok || !has {
		c.reconnect.Fail()
		return false
	}
	sp = rec.Begin("library.reconnect", tr, root)
	home.tp.enter(tr, sp)
	raw, err := home.lib.ConnectVia(library.Via{
		Route:       route,
		Target:      target,
		ServiceName: rushService,
		ConnID:      vc.ID(),
		Reconnect:   true,
	})
	home.tp.leave()
	rec.End(sp)
	if err != nil {
		c.note("reconnect", err)
		c.reconnect.Fail()
		return false
	}
	sp = rec.Begin("library.swap", tr, root)
	vc.Swap(raw)
	rec.End(sp)
	c.reconnect.Add(us(time.Since(t1)))
	return c.echo(rec, tr, root, vc, payloads[(i+1)%len(payloads)], resp)
}

// tcpCounters is the traced run's view of the tcpnet layer, shared by
// the three daemons' decorators.
type tcpCounters struct {
	dials, dialFails, conns, bytes, writes atomic.Int64
}

func (t *tcpCounters) snap() [5]int64 {
	return [5]int64{t.dials.Load(), t.dialFails.Load(), t.conns.Load(), t.bytes.Load(), t.writes.Load()}
}

// tracedPlugin decorates a *tcpnet.Plugin for the traced run: it records
// a span around every Dial, parented on the library call the owning
// client is making, and counts the bytes and writes of every connection
// it hands out, dialled or accepted. Accept itself is not timed: it
// blocks until a peer dials, so its duration is idle time.
type tracedPlugin struct {
	*tcpnet.Plugin
	rec *Recorder
	ctr *tcpCounters

	// Each daemon is home to at most one client, and Dial runs on that
	// client's goroutine inside Connect or ConnectVia, so the span the
	// client has open is the dial's parent.
	parent atomic.Int64  // span ID + 1; 0 when none
	trace  atomic.Uint64 // the parent's trace
}

func (p *tracedPlugin) enter(trace uint64, span int) {
	if p == nil {
		return
	}
	p.trace.Store(trace)
	p.parent.Store(int64(span) + 1)
}

func (p *tracedPlugin) leave() {
	if p == nil {
		return
	}
	p.parent.Store(0)
	p.trace.Store(0)
}

// Dial implements plugin.Plugin.
func (p *tracedPlugin) Dial(to device.Addr, port uint16) (plugin.Conn, error) {
	sp := p.rec.Begin("tcpnet.dial", p.trace.Load(), int(p.parent.Load())-1)
	c, err := p.Plugin.Dial(to, port)
	p.rec.End(sp)
	p.ctr.dials.Add(1)
	if err != nil {
		p.ctr.dialFails.Add(1)
		return nil, err
	}
	p.ctr.conns.Add(1)
	return &countedConn{Conn: c, ctr: p.ctr}, nil
}

// Listen implements plugin.Plugin.
func (p *tracedPlugin) Listen(port uint16) (plugin.Listener, error) {
	l, err := p.Plugin.Listen(port)
	if err != nil {
		return nil, err
	}
	return &countedListener{Listener: l, ctr: p.ctr}, nil
}

type countedListener struct {
	plugin.Listener
	ctr *tcpCounters
}

func (l *countedListener) Accept() (plugin.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.ctr.conns.Add(1)
	return &countedConn{Conn: c, ctr: l.ctr}, nil
}

type countedConn struct {
	plugin.Conn
	ctr *tcpCounters
}

func (c *countedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.ctr.bytes.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.ctr.bytes.Add(int64(n))
	c.ctr.writes.Add(1)
	return n, err
}

package proxy

import (
	"fmt"
	"net"
	"strings"
	"time"

	"infinicache/internal/bufpool"
	"infinicache/internal/lambdanode"
	"infinicache/internal/protocol"
)

// demoteMeta rewrites a backup META frame in flight (λs → λd through
// the relay): chunks of hot-tier-resident objects are moved to the back
// of the MRU-first list. The tier already guarantees those objects'
// availability at the proxy, so the backup's limited streaming window
// is better spent on chunks only the Lambda holds — the measured effect
// lands in Stats.BackupMetaDemoted and the availability delta is
// computed with stats.Delta over before/after summaries.
func (p *Proxy) demoteMeta(m *protocol.Message) {
	if m.Type != protocol.TMeta || p.hot == nil || len(m.Payload) == 0 {
		return
	}
	out, demoted := demoteResident(m.Payload, p.hot.resident)
	if demoted == 0 || out == nil {
		return
	}
	bufpool.Put(m.Payload)
	m.Payload = out
	p.stats.BackupMetaDemoted.Add(int64(demoted))
}

// demoteResident stably partitions a META chunk list so chunks whose
// parent object satisfies resident() sink to the back. Returns the
// re-encoded list and how many entries were demoted; (nil, 0) when
// nothing changes or the payload does not parse (forward untouched).
func demoteResident(meta []byte, resident func(string) bool) ([]byte, int) {
	entries, err := lambdanode.DecodeMeta(meta)
	if err != nil {
		return nil, 0
	}
	var front, back []lambdanode.ChunkMeta
	for _, e := range entries {
		obj := e.Key
		if i := strings.LastIndexByte(obj, '#'); i >= 0 {
			obj = obj[:i]
		}
		if resident(obj) {
			back = append(back, e)
		} else {
			front = append(front, e)
		}
	}
	if len(back) == 0 || len(front) == 0 {
		return nil, 0 // nothing to reorder
	}
	return lambdanode.EncodeMeta(append(front, back...)), len(back)
}

// startRelay launches the backup relay of Figure 10 (step 2): a
// listener that pairs the source λs and destination λd connections and
// forwards frames between them. Lambdas cannot talk to each other
// directly (no inbound connections), so the relay — co-located with the
// proxy — bridges them.
//
// Each side announces itself with a HELLO whose Args[0] is its role
// (0 = source, 1 = destination); that classification frame is consumed
// by the relay.
func (p *Proxy) startRelay() (string, error) {
	// A relay binds beside the proxy's own listener: a free loopback
	// port where addresses are host:port (TCP), a fresh child of the
	// proxy's name on a transport of plain names.
	addr := "127.0.0.1:0"
	if _, _, err := net.SplitHostPort(p.addr); err != nil {
		addr = fmt.Sprintf("%s/relay-%d", p.addr, p.nextSeq())
	}
	ln, err := p.cfg.Listen(addr)
	if err != nil {
		return "", err
	}
	p.wg.Add(1)
	go p.runRelay(ln)
	return ln.Addr().String(), nil
}

const relayPairTimeout = 30 * time.Second // wall-clock guard for pairing

func (p *Proxy) runRelay(ln net.Listener) {
	defer p.wg.Done()
	defer ln.Close()

	type joined struct {
		conn *protocol.Conn
		role int64
	}
	arrivals := make(chan joined, 2)

	// Accept at most two peers, classifying each by its HELLO.
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for i := 0; i < 2; i++ {
			if tl, ok := ln.(*net.TCPListener); ok {
				tl.SetDeadline(time.Now().Add(relayPairTimeout))
			}
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				c := protocol.NewConn(raw)
				hello, err := c.Recv()
				if err != nil || hello.Type != protocol.THello {
					c.Close()
					return
				}
				arrivals <- joined{conn: c, role: hello.Arg(0)}
			}()
		}
	}()

	var src, dst *protocol.Conn
	deadline := time.After(relayPairTimeout)
	for src == nil || dst == nil {
		select {
		case j := <-arrivals:
			if j.role == 0 {
				src = j.conn
			} else {
				dst = j.conn
			}
		case <-deadline:
			if src != nil {
				src.Close()
			}
			if dst != nil {
				dst.Close()
			}
			return
		case <-p.done:
			return
		}
	}

	// Bridge frames both ways until either side hangs up. The relay is
	// a pure forwarding hop: each frame's pooled payload is re-sent
	// under the same header and recycled here, never copied or
	// re-wrapped. While more input is already buffered (those bytes are
	// in flight from the peer, so the next Recv cannot stall the pipe),
	// the outbound Pin window stays open and the backlog rides one
	// flush. xform, when non-nil, may rewrite a frame in place before it
	// goes out (the src→dst direction runs META demotion through it).
	pipe := func(from, to *protocol.Conn, xform func(*protocol.Message), done chan<- struct{}) {
		defer func() { done <- struct{}{} }()
		for {
			m, err := from.Recv()
			if err != nil {
				return
			}
			to.Pin()
			if xform != nil {
				xform(m)
			}
			err = to.Forward(m.Type, m.Seq, m.Key, m.Addr, m.Args, m.Payload)
			m.Recycle()
			for err == nil && from.Buffered() > 0 {
				if m, err = from.Recv(); err != nil {
					to.Flush()
					return
				}
				if xform != nil {
					xform(m)
				}
				err = to.Forward(m.Type, m.Seq, m.Key, m.Addr, m.Args, m.Payload)
				m.Recycle()
			}
			if ferr := to.Flush(); err == nil {
				err = ferr
			}
			if err != nil {
				return
			}
		}
	}
	done := make(chan struct{}, 2)
	go pipe(src, dst, p.demoteMeta, done)
	go pipe(dst, src, nil, done)
	select {
	case <-done:
	case <-p.done:
	}
	src.Close()
	dst.Close()
	// Drain the second pipe's completion if it is still running.
	select {
	case <-done:
	default:
	}
}

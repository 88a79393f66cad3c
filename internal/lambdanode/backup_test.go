package lambdanode

import (
	"net"
	"testing"
	"time"

	"infinicache/internal/lambdaemu"
	"infinicache/internal/protocol"
)

// recvWithin returns the next frame on in, failing t if none arrives
// within a few seconds.
func recvWithin(t *testing.T, in <-chan *protocol.Message, what string) *protocol.Message {
	t.Helper()
	select {
	case m, ok := <-in:
		if !ok {
			t.Fatalf("connection closed waiting for %s", what)
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatalf("no frame within 5 s waiting for %s", what)
	}
	return nil
}

// TestBackupDestKeepsProxyWrites: a backup destination λd serves the
// proxy while it pulls the source's chunks through the relay, so the
// proxy's writes during the backup are newer than anything the relay
// returns. A chunk the proxy SETs while its fetch is in flight keeps the
// proxy's bytes, not the source's older copy, and a chunk the proxy
// DELs while it waits in the fetch queue is never fetched back.
func TestBackupDestKeepsProxyWrites(t *testing.T) {
	relayLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer relayLn.Close()
	fp := newFakeProxy(t)
	plat := lambdaemu.New(lambdaemu.Config{
		ColdStartDelay:  time.Millisecond,
		WarmInvokeDelay: time.Millisecond,
		Dial:            func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) },
	})
	defer plat.Close()
	if _, err := plat.Register("node", lambdaemu.FunctionConfig{MemoryMB: 1024}, NewHandler(Config{})); err != nil {
		t.Fatal(err)
	}
	pl := &Payload{Cmd: CmdBackupDest, ProxyAddr: fp.ln.Addr().String(), RelayAddr: relayLn.Addr().String(), SourceID: "src"}
	if err := plat.Invoke("node", pl.Encode()); err != nil {
		t.Fatal(err)
	}

	// The relay side: λd announces itself, then asks for metadata.
	raw, err := relayLn.Accept()
	if err != nil {
		t.Fatal(err)
	}
	relay := protocol.NewConn(raw)
	defer relay.Close()
	fromDest := protocol.Pump(relay)
	proxy := fp.accept(t, "node")
	defer proxy.Close()
	fromNode := protocol.Pump(proxy)
	for i := 0; i < 2; i++ {
		if m := recvWithin(t, fromDest, "HELLO"); m.Type != protocol.THello {
			t.Fatalf("relay got %v, want HELLO", m.Type)
		}
	}
	meta := EncodeMeta([]ChunkMeta{{Key: "k#0", Size: 3}, {Key: "k#1", Size: 3}, {Key: "k#2", Size: 3}})
	relay.Send(&protocol.Message{Type: protocol.TMeta, Key: "src", Payload: meta})
	fetch := recvWithin(t, fromDest, "the fetch of k#0")
	if fetch.Type != protocol.TGet || fetch.Key != "k#0" {
		t.Fatalf("relay got %v %q, want GET k#0", fetch.Type, fetch.Key)
	}

	// While k#0's fetch is in flight, the proxy writes k#0 and deletes
	// k#2, which is still queued.
	proxy.Forward(protocol.TSet, 1, "k#0", "", nil, []byte("new"))
	proxy.Forward(protocol.TDel, 2, "k#2", "", nil, nil)
	for _, key := range []string{"k#0", "k#2"} {
		if m := recvWithin(t, fromNode, "an ACK"); m.Type != protocol.TAck || m.Key != key {
			t.Fatalf("proxy got %v %q, want ACK %s", m.Type, m.Key, key)
		}
	}
	if m := recvWithin(t, fromDest, "the forwarded SET"); m.Type != protocol.TSet || m.Key != "k#0" {
		t.Fatalf("relay got %v %q, want the forwarded SET of k#0", m.Type, m.Key)
	}
	// The source answers the fetch with its older copy.
	relay.Forward(protocol.TData, fetch.Seq, "k#0", "", nil, []byte("old"))
	fetch = recvWithin(t, fromDest, "the fetch of k#1")
	if fetch.Type != protocol.TGet || fetch.Key != "k#1" {
		t.Fatalf("relay got %v %q, want GET k#1", fetch.Type, fetch.Key)
	}

	proxy.Forward(protocol.TGet, 3, "k#0", "", nil, nil)
	if m := recvWithin(t, fromNode, "k#0"); m.Type != protocol.TData || string(m.Payload) != "new" {
		t.Fatalf("backup destination serves %v %q for k#0 after the proxy SET it to \"new\"", m.Type, m.Payload)
	}
	proxy.Forward(protocol.TGet, 4, "k#2", "", nil, nil)
	if m := recvWithin(t, fromNode, "k#2"); m.Type != protocol.TMiss {
		t.Fatalf("backup destination answers %v for k#2 after the proxy DELed it, want MISS", m.Type)
	}

	relay.Forward(protocol.TData, fetch.Seq, "k#1", "", nil, []byte("one"))
	if m := recvWithin(t, fromDest, "the end of the backup"); m.Type != protocol.TBye {
		t.Fatalf("relay got %v %q after the last fetch, want BYE: the deleted k#2 was fetched back", m.Type, m.Key)
	}
}

package cluster

import (
	"reflect"
	"testing"
)

// FuzzDecodeEpoch feeds the RING payload parser arbitrary bytes — it
// reads what a peer sent. No input may panic it, and whatever it
// accepts must survive its own encoding: the same version, the same
// members in the same order, the same owner for a key.
func FuzzDecodeEpoch(f *testing.F) {
	f.Add(NewEpoch(42, []Member{{Addr: "127.0.0.1:9002", PoolSize: 16}, {Addr: "proxy-0", PoolSize: 8}}).Encode())
	f.Add([]byte("v 1\n"))
	f.Add([]byte("m a 1\nv 7\nm a 2\n\n"))
	f.Add([]byte("v 18446744073709551616\n"))
	f.Add([]byte("v 1\nm lonely\n"))
	f.Add([]byte("v 1\nx\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		e, err := DecodeEpoch(raw)
		if err != nil {
			return
		}
		again, err := DecodeEpoch(e.Encode())
		if err != nil {
			t.Fatalf("accepted %q, rejected its re-encoding %q: %v", raw, e.Encode(), err)
		}
		if again.Version() != e.Version() || !reflect.DeepEqual(again.Members(), e.Members()) {
			t.Fatalf("%q: round trip changed the epoch: v%d %+v -> v%d %+v",
				raw, e.Version(), e.Members(), again.Version(), again.Members())
		}
		if again.Owner("some-key") != e.Owner("some-key") {
			t.Fatalf("%q: round trip changed ownership", raw)
		}
	})
}

package lambdanode

import (
	"bytes"
	"testing"
)

func TestPayloadRoundTrip(t *testing.T) {
	p := &Payload{
		Cmd:       CmdBackupDest,
		ProxyAddr: "127.0.0.1:1234",
		RelayAddr: "127.0.0.1:5678",
		SourceID:  "node@7",
	}
	got, err := DecodePayload(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *p {
		t.Fatalf("got %+v, want %+v", got, p)
	}
}

func TestDecodePayloadDefaults(t *testing.T) {
	got, err := DecodePayload(nil)
	if err != nil || got.Cmd != CmdWarmup {
		t.Fatalf("nil payload: %+v, %v", got, err)
	}
	got, err = DecodePayload([]byte(`{"proxy_addr":"x"}`))
	if err != nil || got.Cmd != CmdWarmup || got.ProxyAddr != "x" {
		t.Fatalf("empty cmd: %+v, %v", got, err)
	}
}

func TestDecodePayloadMalformed(t *testing.T) {
	if _, err := DecodePayload([]byte("{not json")); err == nil {
		t.Fatal("malformed payload accepted")
	}
}

func TestMetaRoundTrip(t *testing.T) {
	in := []ChunkMeta{{Key: "a#0", Size: 100}, {Key: "b#3", Size: 42}}
	out, err := DecodeMeta(EncodeMeta(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("meta round trip: %+v", out)
	}
	if _, err := DecodeMeta([]byte("nope")); err == nil {
		t.Fatal("bad meta accepted")
	}
}

func TestStoreBasics(t *testing.T) {
	s := newStore()
	if s.len() != 0 || s.bytes != 0 {
		t.Fatal("new store not empty")
	}
	s.set("a", []byte("hello"))
	if !s.has("a") || s.len() != 1 || s.bytes != 5 {
		t.Fatalf("after set: len=%d bytes=%d", s.len(), s.bytes)
	}
	v, ok := s.get("a")
	if !ok || !bytes.Equal(v, []byte("hello")) {
		t.Fatal("get wrong")
	}
	// Overwrite adjusts byte accounting.
	s.set("a", []byte("hi"))
	if s.bytes != 2 {
		t.Fatalf("bytes after overwrite = %d", s.bytes)
	}
	if !s.del("a") || s.has("a") || s.bytes != 0 {
		t.Fatal("del wrong")
	}
	if s.del("a") {
		t.Fatal("double delete reported true")
	}
}

func TestStoreMetaMRUFirst(t *testing.T) {
	s := newStore()
	s.set("cold", []byte("1111"))
	s.set("warm", []byte("22"))
	s.set("hot", []byte("3"))
	s.get("cold") // now the most recently used
	meta := s.metaMRUFirst()
	if len(meta) != 3 {
		t.Fatalf("meta lists %d chunks, want 3", len(meta))
	}
	if meta[0].Key != "cold" || meta[1].Key != "hot" || meta[2].Key != "warm" {
		t.Fatalf("MRU-first order wrong: %+v", meta)
	}
	total := int64(0)
	for _, m := range meta {
		total += m.Size
	}
	if total != s.bytes {
		t.Fatalf("meta sizes %d != store bytes %d", total, s.bytes)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}
	cfg.fillDefaults()
	if cfg.BufferTime == 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if extendThreshold != 2 {
		t.Fatalf("extend threshold = %d, paper says 2", extendThreshold)
	}
}

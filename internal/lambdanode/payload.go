// Package lambdanode implements the InfiniCache Lambda function runtime
// (§3.3 of the paper): the code that executes inside every cache-node
// function instance. It manages cached object chunks in function memory,
// keeps a persistent outbound connection to its proxy, aligns its
// lifetime to 100 ms billing cycles (anticipatory billed duration
// control), answers preflight PINGs, and runs both sides of the
// delta-sync backup protocol of §4.2. WarmPool runs the same chunk
// serving without the platform: always-warm nodes for stacks that
// exercise the request plane alone.
package lambdanode

import (
	"encoding/json"
	"fmt"
)

// Invocation commands carried in the payload.
const (
	CmdRequest    = "request"     // wake up to serve chunk requests
	CmdWarmup     = "warmup"      // periodic keep-alive (§4.2, T_warm)
	CmdBackupDest = "backup-dest" // run as backup destination λd (§4.2)
)

// Payload is the invocation parameter block, the only information a
// Lambda receives at invoke time (AWS Event-style JSON payload).
type Payload struct {
	Cmd       string `json:"cmd"`
	ProxyAddr string `json:"proxy_addr"`
	// Backup-destination fields (step 6 of Figure 10): λs passes the
	// relay and proxy coordinates to λd through the invocation.
	RelayAddr string `json:"relay_addr,omitempty"`
	SourceID  string `json:"source_id,omitempty"`
}

// Encode serialises the payload.
func (p *Payload) Encode() []byte {
	b, err := json.Marshal(p)
	if err != nil {
		// Payload contains only strings; Marshal cannot fail.
		panic(fmt.Sprintf("lambdanode: payload marshal: %v", err))
	}
	return b
}

// DecodePayload parses an invocation payload. A nil/empty payload decodes
// to a bare warmup (defensive default).
func DecodePayload(raw []byte) (*Payload, error) {
	if len(raw) == 0 {
		return &Payload{Cmd: CmdWarmup}, nil
	}
	var p Payload
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("lambdanode: bad payload: %w", err)
	}
	if p.Cmd == "" {
		p.Cmd = CmdWarmup
	}
	return &p, nil
}

// ChunkMeta describes one cached chunk in backup metadata. Exported so
// the proxy's relay can reorder a META stream in flight (hot-tier-aware
// backup prioritisation).
type ChunkMeta struct {
	Key  string `json:"k"`
	Size int64  `json:"s"`
}

// EncodeMeta serialises a backup META chunk list.
func EncodeMeta(keys []ChunkMeta) []byte {
	b, err := json.Marshal(keys)
	if err != nil {
		panic(fmt.Sprintf("lambdanode: meta marshal: %v", err))
	}
	return b
}

// DecodeMeta parses a backup META chunk list.
func DecodeMeta(raw []byte) ([]ChunkMeta, error) {
	var keys []ChunkMeta
	if err := json.Unmarshal(raw, &keys); err != nil {
		return nil, fmt.Errorf("lambdanode: bad meta: %w", err)
	}
	return keys, nil
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// One monotonic clock for every stamp: the whole stack is one process.
var clockBase = time.Now()

func nanos() int64 { return int64(time.Since(clockBase)) }

type opKind uint8

const (
	kindGet opKind = iota
	kindPut
	kindRange
	numKinds
)

var kindNames = [numKinds]string{"get", "put", "range"}

// Stage ledger: six consecutive stages partition [t0, t6] of an op. A
// tier hit never reaches a node, so its middle is one proxy.hot stage.
const (
	stSend   = iota // client.send   t0 call entered -> t1 last request byte written
	stFanout        // proxy.fanout  t1 -> t2 first chunk request reaches a node
	stWindow        // node.window   t2 -> t3 d-th DATA / last ACK written by a node
	stFanin         // proxy.fanin   t3 -> t4 first response byte read by the client
	stRecv          // client.recv   t4 -> t5 last response byte read
	stFinish        // client.finish t5 -> t6 call returned
	numStages
)

var stageNames = [numStages]string{"client.send", "proxy.fanout", "node.window", "proxy.fanin", "client.recv", "client.finish"}

// maxNodeEvents bounds the chunk requests kept per op: d+p = 12 for a
// whole-object op, the rest is slack for recovery re-inserts.
const maxNodeEvents = 16

type nodeEvent struct{ recv, written int64 }

// opTrace is the raw record of one traced op. The owning client
// goroutine writes t0/t6, the client's conn tap the three atomics, and
// the warm nodes the chunk events.
type opTrace struct {
	kind   opKind
	failed bool
	key    string
	t0, t6 int64

	lastWrite, firstRead, lastRead atomic.Int64

	mu     sync.Mutex
	nNode  int
	nodes  [maxNodeEvents]nodeEvent
	excess int // chunk requests beyond maxNodeEvents
}

func (op *opTrace) addNode(recv, written int64) {
	op.mu.Lock()
	if op.nNode < maxNodeEvents {
		op.nodes[op.nNode] = nodeEvent{recv, written}
		op.nNode++
	} else {
		op.excess++
	}
	op.mu.Unlock()
}

// tracer holds the op in flight per client (the traced pass keeps one
// op in flight per client, so a chunk request's key names its op) and
// every finished op.
type tracer struct {
	cur [numClients]atomic.Pointer[opTrace]
	ops [numClients][]*opTrace // appended by the owning client goroutine only
}

func (t *tracer) begin(client int, kind opKind, key string) *opTrace {
	op := &opTrace{kind: kind, key: key}
	op.t0 = nanos()
	t.cur[client].Store(op)
	return op
}

func (t *tracer) end(client int, op *opTrace, failed bool) {
	op.t6 = nanos()
	t.cur[client].Store(nil)
	op.failed = failed
	t.ops[client] = append(t.ops[client], op)
}

// lookup maps a chunk key seen at a node ("c<client>/<key>[\x1fs<stripe>]#<idx>")
// to the op in flight on that key, or nil.
func (t *tracer) lookup(chunkKey string) *opTrace {
	if len(chunkKey) < 3 || chunkKey[0] != 'c' {
		return nil
	}
	c := int(chunkKey[1] - '0')
	if c < 0 || c >= numClients {
		return nil
	}
	op := t.cur[c].Load()
	if op == nil || !strings.HasPrefix(chunkKey, op.key) || len(chunkKey) == len(op.key) {
		return nil
	}
	if next := chunkKey[len(op.key)]; next != '#' && next != '\x1f' {
		return nil
	}
	return op
}

// ledger is one op's stage breakdown in nanoseconds.
type ledger struct {
	kind     opKind
	total    int64
	stage    [numStages]int64
	hot      int64 // proxy.hot; only when tierHit
	tierHit  bool
	requests int
}

// ledger cuts [t0, t6] at the stamps. Stamps are clamped to be
// monotone and inside the op, so the stages always sum to the op
// latency exactly; a stage that overlaps its predecessor (a large PUT
// reaches the nodes before its last byte leaves the client) is charged
// only for the part after it.
func (op *opTrace) ledger(d int) ledger {
	l := ledger{kind: op.kind, total: op.t6 - op.t0, requests: op.nNode + op.excess}
	clamp := func(prev, t int64) int64 {
		if t == 0 || t < prev {
			return prev
		}
		if t > op.t6 {
			return op.t6
		}
		return t
	}
	t1 := clamp(op.t0, op.lastWrite.Load())
	if op.nNode == 0 {
		t4 := clamp(t1, op.firstRead.Load())
		t5 := clamp(t4, op.lastRead.Load())
		l.tierHit = true
		l.stage[stSend] = t1 - op.t0
		l.hot = t4 - t1
		l.stage[stRecv] = t5 - t4
		l.stage[stFinish] = op.t6 - t5
		return l
	}
	first, written := op.nodes[0].recv, make([]int64, op.nNode)
	for i, ev := range op.nodes[:op.nNode] {
		if ev.recv < first {
			first = ev.recv
		}
		written[i] = ev.written
	}
	sort.Slice(written, func(i, j int) bool { return written[i] < written[j] })
	// A whole-object GET is unblocked by its d-th DATA; a ranged read
	// and a PUT need every reply.
	need := op.nNode
	if op.kind == kindGet && need > d {
		need = d
	}
	t2 := clamp(t1, first)
	t3 := clamp(t2, written[need-1])
	t4 := clamp(t3, op.firstRead.Load())
	t5 := clamp(t4, op.lastRead.Load())
	l.stage = [numStages]int64{t1 - op.t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, op.t6 - t5}
	return l
}

// span is one entry of trace_<workload>.json.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an op
	Op     int    `json:"op"`     // id of the op the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Key    string `json:"key,omitempty"`
}

// maxSpanOps bounds the ops written out per client; the stage
// quantiles always use every traced op.
const maxSpanOps = 2000

// writeSpans writes the spans of the first maxSpanOps ops per client.
func (t *tracer) writeSpans(path string, d int) error {
	var spans []span
	id := 0
	next := func() int { id++; return id }
	for c := range t.ops {
		ops := t.ops[c]
		if len(ops) > maxSpanOps {
			ops = ops[:maxSpanOps]
		}
		for _, op := range ops {
			l := op.ledger(d)
			opID := next()
			spans = append(spans, span{ID: opID, Op: opID, Name: "op." + kindNames[op.kind], Start: op.t0, End: op.t6, Key: op.key})
			at := op.t0
			add := func(name string, dur int64) int {
				sid := next()
				spans = append(spans, span{ID: sid, Parent: opID, Op: opID, Name: name, Start: at, End: at + dur})
				at += dur
				return sid
			}
			add(stageNames[stSend], l.stage[stSend])
			if l.tierHit {
				add("proxy.hot", l.hot)
			} else {
				add(stageNames[stFanout], l.stage[stFanout])
				win := add(stageNames[stWindow], l.stage[stWindow])
				for _, ev := range op.nodes[:op.nNode] {
					spans = append(spans, span{ID: next(), Parent: win, Op: opID, Name: "node.serve", Start: ev.recv, End: ev.written})
				}
				add(stageNames[stFanin], l.stage[stFanin])
			}
			add(stageNames[stRecv], l.stage[stRecv])
			add(stageNames[stFinish], l.stage[stFinish])
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

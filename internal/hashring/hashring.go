// Package hashring implements a consistent hashing ring with virtual
// nodes: the "CH ring" of Figure 3 of the paper, which picks the proxy
// owning a key so that a fleet of clients sharing several proxies agree
// on key placement without coordination. The client and the proxies do
// not use it directly; each cluster.Epoch builds one over its member
// addresses, and both route through the epoch (the Redis baseline in
// internal/rediscache keeps a ring of its own).
package hashring

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// DefaultReplicas is the default number of virtual nodes per member.
const DefaultReplicas = 160

// Ring is a consistent hashing ring. It is safe for concurrent use.
type Ring struct {
	mu       sync.RWMutex
	replicas int
	hashes   []uint64          // sorted virtual node hashes
	owner    map[uint64]string // virtual node hash -> member
	members  map[string]bool
}

// New returns an empty ring with the given number of virtual nodes per
// member; replicas <= 0 selects DefaultReplicas.
func New(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{
		replicas: replicas,
		owner:    make(map[uint64]string),
		members:  make(map[string]bool),
	}
}

func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer. FNV alone avalanches poorly on short
// suffix changes ("proxy-0#1" vs "proxy-0#2"), which skews virtual-node
// placement; the finalizer restores a near-uniform spread.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a member into the ring. Adding an existing member is a no-op.
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[member] {
		return
	}
	r.members[member] = true
	for i := 0; i < r.replicas; i++ {
		h := hashKey(fmt.Sprintf("%s#%d", member, i))
		// On the (astronomically unlikely) collision, first writer wins;
		// the ring stays consistent either way.
		if _, ok := r.owner[h]; !ok {
			r.owner[h] = member
			r.hashes = append(r.hashes, h)
		}
	}
	sort.Slice(r.hashes, func(i, j int) bool { return r.hashes[i] < r.hashes[j] })
}

// Remove deletes a member and its virtual nodes from the ring.
func (r *Ring) Remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	kept := r.hashes[:0]
	for _, h := range r.hashes {
		if r.owner[h] == member {
			delete(r.owner, h)
		} else {
			kept = append(kept, h)
		}
	}
	r.hashes = kept
}

// Locate returns the member owning key, or "" if the ring is empty.
func (r *Ring) Locate(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.hashes) == 0 {
		return ""
	}
	h := hashKey(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return r.owner[r.hashes[i]]
}

// LocateN returns up to n distinct members for key, walking clockwise from
// the key's position. Useful for replicated placement.
func (r *Ring) LocateN(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.hashes) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hashKey(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; len(out) < n && i < len(r.hashes); i++ {
		m := r.owner[r.hashes[(start+i)%len(r.hashes)]]
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// Members returns the current members in unspecified order.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	return out
}

// Len returns the number of members.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

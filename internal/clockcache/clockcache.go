// Package clockcache implements the CLOCK (second-chance) replacement
// policy from Corbató's Multics paging experiment, the algorithm
// InfiniCache uses in four places:
//
//   - per proxy, at object granularity, to pick eviction victims when a
//     Lambda pool runs out of memory (§3.2);
//   - per Lambda node, to keep cached chunks in approximate MRU→LRU order
//     for the delta-sync backup protocol (§3.3, §4.2);
//   - inside the proxy-resident hot-object tier, both for the resident
//     set (eviction under the byte cap) and as the payload-less "ghost"
//     admission filter that frequency-gates what may enter the tier.
//     That tier's whole policy is Tier (tier.go), the one implementation
//     the live proxy and the simulator both run.
//
// CLOCK approximates LRU with O(1) access cost: entries sit on a circular
// list with a reference bit; the eviction hand sweeps the circle, clearing
// bits and evicting the first entry whose bit is already clear.
//
// # Contract
//
// A Cache tracks keys and accounting sizes only — values live with the
// caller (the proxy's mapping table, the node's chunk store, the hot
// tier's entry map), which is also responsible for locking: no method
// here, Tier's included, is safe for concurrent use. Add/Touch set the reference bit;
// Evict/EvictUntil run the hand; KeysByPriority orders MRU-first by
// touch generation for the §4.2 backup metadata. A set where every
// entry has size 1 doubles as a bounded key filter (Size() == Len()),
// which is how Tier's ghost filter uses it.
package clockcache

import (
	"container/list"
	"sort"
)

// Entry is a cached item with its accounting size.
type Entry struct {
	Key  string
	Size int64
	// referenced is the CLOCK bit, set on access and cleared by the hand.
	referenced bool
	// touchGen orders entries by recency for KeysByPriority (the
	// "CLOCK-based priority queue" the Lambda runtime keeps for backup
	// ordering, §3.3); it does not affect eviction.
	touchGen uint64
}

// Cache is a CLOCK cache tracking keys and sizes; values live elsewhere
// (the proxy's mapping table or the node's chunk store). Not safe for
// concurrent use; callers hold their own locks.
type Cache struct {
	ring  *list.List               // of *Entry
	index map[string]*list.Element // key -> element
	hand  *list.Element
	size  int64
	gen   uint64
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{
		ring:  list.New(),
		index: make(map[string]*list.Element),
	}
}

// Len returns the number of entries.
func (c *Cache) Len() int { return c.ring.Len() }

// Size returns the sum of entry sizes.
func (c *Cache) Size() int64 { return c.size }

// Contains reports whether key is present, without touching its CLOCK bit.
func (c *Cache) Contains(key string) bool {
	_, ok := c.index[key]
	return ok
}

// EntrySize returns the recorded size of key and whether it is present.
func (c *Cache) EntrySize(key string) (int64, bool) {
	el, ok := c.index[key]
	if !ok {
		return 0, false
	}
	return el.Value.(*Entry).Size, true
}

// Add inserts key with the given size, or updates the size of an existing
// key. Either way the entry's reference bit is set.
func (c *Cache) Add(key string, size int64) {
	c.gen++
	if el, ok := c.index[key]; ok {
		e := el.Value.(*Entry)
		c.size += size - e.Size
		e.Size = size
		e.referenced = true
		e.touchGen = c.gen
		return
	}
	e := &Entry{Key: key, Size: size, referenced: true, touchGen: c.gen}
	var el *list.Element
	if c.hand != nil {
		// Insert just behind the hand so the new entry is the last the
		// hand reaches, matching the classic CLOCK insertion point.
		el = c.ring.InsertBefore(e, c.hand)
	} else {
		el = c.ring.PushBack(e)
	}
	c.index[key] = el
	c.size += size
}

// Touch sets the reference bit of key, granting it a second chance.
// It reports whether the key was present.
func (c *Cache) Touch(key string) bool {
	el, ok := c.index[key]
	if !ok {
		return false
	}
	c.gen++
	e := el.Value.(*Entry)
	e.referenced = true
	e.touchGen = c.gen
	return true
}

// Remove deletes key, returning its size and whether it was present.
func (c *Cache) Remove(key string) (int64, bool) {
	el, ok := c.index[key]
	if !ok {
		return 0, false
	}
	e := el.Value.(*Entry)
	if c.hand == el {
		c.hand = c.next(el)
		if c.hand == el {
			c.hand = nil
		}
	}
	c.ring.Remove(el)
	delete(c.index, key)
	c.size -= e.Size
	return e.Size, true
}

func (c *Cache) next(el *list.Element) *list.Element {
	n := el.Next()
	if n == nil {
		n = c.ring.Front()
	}
	return n
}

// Evict runs the CLOCK hand and removes the first entry found with a clear
// reference bit, returning it. Entries with set bits are given their second
// chance (bit cleared, hand moves on). Returns nil if the cache is empty.
func (c *Cache) Evict() *Entry {
	if c.ring.Len() == 0 {
		return nil
	}
	if c.hand == nil {
		c.hand = c.ring.Front()
	}
	// At most two sweeps: the first clears all bits in the worst case and
	// the second must find a victim.
	for i := 0; i < 2*c.ring.Len(); i++ {
		e := c.hand.Value.(*Entry)
		if e.referenced {
			e.referenced = false
			c.hand = c.next(c.hand)
			continue
		}
		victim := c.hand
		c.hand = c.next(victim)
		if c.hand == victim {
			c.hand = nil
		}
		c.ring.Remove(victim)
		delete(c.index, e.Key)
		c.size -= e.Size
		return e
	}
	return nil // unreachable with Len() > 0
}

// EvictUntil evicts entries until Size() <= limit, returning the victims in
// eviction order.
func (c *Cache) EvictUntil(limit int64) []*Entry {
	var out []*Entry
	for c.size > limit && c.ring.Len() > 0 {
		if v := c.Evict(); v != nil {
			out = append(out, v)
		}
	}
	return out
}

// Keys returns all keys in ring order starting from the front.
func (c *Cache) Keys() []string {
	out := make([]string, 0, c.ring.Len())
	for el := c.ring.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*Entry).Key)
	}
	return out
}

// KeysByPriority returns keys ordered MRU-first by touch generation.
// The Lambda runtime sends backup metadata in this order so the most
// valuable chunks migrate first (§4.2: "in an order from MRU to LRU").
func (c *Cache) KeysByPriority() []string {
	entries := make([]*Entry, 0, c.ring.Len())
	for el := c.ring.Front(); el != nil; el = el.Next() {
		entries = append(entries, el.Value.(*Entry))
	}
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].touchGen > entries[j].touchGen
	})
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Key
	}
	return out
}

package service

import (
	"container/list"
	"fmt"
	"sync"

	emogi "repro"
)

// cacheKey identifies one deterministic traversal: the simulator is
// bit-for-bit reproducible, so (dataset, algorithm, source, variant,
// transport policy) fully determines the Result for cold-cache runs — a
// routed policy's per-round decisions are themselves a pure function of
// those inputs. Src and variant are normalized at key construction
// (source-free algorithms ignore src, fixed-variant kernels ignore
// variant) so equivalent requests share an entry. policy is the registry
// name of the policy the run executes under (the dataset's loaded policy,
// or the request's override).
type cacheKey struct {
	dataset string
	algo    string
	src     int
	variant emogi.Variant
	policy  string
}

// resultCache is a small mutex-guarded LRU over emogi.Result values. Both
// put and get copy: the cache never shares a *Result (or its Values
// backing array) with any caller, so one caller mutating its response —
// which handlers legitimately do — cannot corrupt what later hits see.
// "Immutable by convention" was the previous contract and it was a bug:
// concurrent hits on one key observed each other's writes.
type resultCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used; elements hold *cacheEntry
	m   map[cacheKey]*list.Element
}

type cacheEntry struct {
	key cacheKey
	res *emogi.Result
}

// newResultCache builds an LRU holding up to capacity entries. A capacity
// of zero or less is a constructor error, not an empty cache: the old
// behavior silently evicted every entry on insert, turning a
// configuration mistake into a 0% hit rate. Callers that want caching off
// must not construct a cache at all (Config.CacheEntries < 0).
func newResultCache(capacity int) (*resultCache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("service: result cache capacity %d is not positive; disable caching instead of sizing it to zero", capacity)
	}
	return &resultCache{
		cap: capacity,
		ll:  list.New(),
		m:   make(map[cacheKey]*list.Element, capacity),
	}, nil
}

// cloneResult returns a deep copy of res: the struct plus a private copy
// of the Values slice (Stats is a plain value struct; no other field holds
// shared mutable state).
func cloneResult(res *emogi.Result) *emogi.Result {
	if res == nil {
		return nil
	}
	out := *res
	if res.Values != nil {
		out.Values = make([]uint32, len(res.Values))
		copy(out.Values, res.Values)
	}
	return &out
}

func (c *resultCache) get(k cacheKey) (*emogi.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return cloneResult(el.Value.(*cacheEntry).res), true
}

func (c *resultCache) put(k cacheKey, res *emogi.Result) {
	stored := cloneResult(res)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		el.Value.(*cacheEntry).res = stored
		c.ll.MoveToFront(el)
		return
	}
	c.m[k] = c.ll.PushFront(&cacheEntry{key: k, res: stored})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
	}
}

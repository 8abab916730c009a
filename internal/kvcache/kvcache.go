// Package kvcache implements the key/value memorization-cache managers
// used by the execution engines.
//
// Three management disciplines appear in the paper:
//
//   - Reserved: FasterTransformer/DSI reserve the worst-case sequence
//     length for every query up front and never early-terminate, wasting
//     memory and compute on completed queries (§2).
//   - Compacting: ExeGPT's XRunner early-terminates completed queries
//     and compacts their cache entries (§3); memory tracks live tokens
//     plus a transient fragmentation that compaction reclaims.
//   - Paged: vLLM's PagedAttention allocates fixed-size pages on demand,
//     bounding waste to under one page per query (§2).
//
// All managers account bytes against a shared hw.MemTracker so the
// runner can detect out-of-memory conditions (e.g. WAA on 175B+ models,
// §7.4).
//
// # Cost
//
// Every manager keeps running totals, so LiveTokens, UsedBytes and
// FragBytes are O(1). Per-query state lives in a dense
// slice indexed by query id (see table), so Append is O(1) with no map
// operation, and Admit and Release are amortized O(1) for ids that
// arrive in increasing order, as request ids do (an id below every live
// one copies the window). Memory is proportional to the span of ids
// admitted at once, not to the largest id ever seen. AppendAll is
// O(1) for Reserved and Compacting (a shared epoch counter stands in for
// the per-query increments) and O(live queries) for Paged, whose page
// boundaries are per query.
//
// # Bulk append
//
// AppendAll extends every admitted query by one token, the step a decode
// iteration takes once its finished queries are released. It charges the
// tracker once for the whole step and either applies to every query or,
// on out-of-memory, to none. For Compacting, whose Release never returns
// bytes to the tracker, that single charge fails exactly when some
// per-query Append of the same step would have, and leaves the tracker's
// Used and Peak where the per-query appends would.
package kvcache

import (
	"fmt"
	"slices"

	"exegpt/internal/hw"
)

// Manager is the interface the execution engines program against.
// Query ids are non-negative; the ids admitted at any one time must lie
// within maxIDSpan of each other.
type Manager interface {
	// Admit reserves cache space for a new query with the given prompt
	// length (tokens already in cache after prefill) and, for reserving
	// managers, the worst-case total length.
	Admit(id, promptTokens, maxTokens int) error
	// Append extends a query's cache by one generated token.
	Append(id int) error
	// AppendAll extends every admitted query's cache by one generated
	// token, all or nothing.
	AppendAll() error
	// Release frees a completed (or evicted) query's cache.
	Release(id int) error
	// LiveTokens returns the number of tokens currently cached.
	LiveTokens() int64
	// UsedBytes returns the bytes charged to the underlying tracker.
	UsedBytes() int64
}

// maxIDSpan bounds the distance between the lowest and highest id
// admitted at once, and so the size of a table's window (tens of MB).
// The engines' live ids span at most the requests admitted during one
// query's lifetime, thousands at the paper's batch sizes.
const maxIDSpan = 1 << 20

// table holds per-query state in a dense window of slots indexed by
// id-lo. The window starts at a live entry: releasing the lowest ids
// slides it forward, and growing it first moves the window to the front
// of its buffer once the dead prefix is at least as long as the window,
// so ids that grow without bound (an open-loop server's request ids)
// reuse one buffer instead of growing it.
type table[T any] struct {
	lo   int       // id of buf[head]
	head int       // start of the window in buf
	buf  []slot[T] // buf[head:] is the window
	n    int       // live entries
}

type slot[T any] struct {
	v  T
	ok bool
}

func (t *table[T]) window() []slot[T] { return t.buf[t.head:] }

// get returns the state of a live query, or nil.
func (t *table[T]) get(id int) *T {
	w := t.window()
	if id < t.lo || id-t.lo >= len(w) || !w[id-t.lo].ok {
		return nil
	}
	return &w[id-t.lo].v
}

// check reports why id cannot be admitted, without changing the table.
func (t *table[T]) check(id int) error {
	if id < 0 {
		return fmt.Errorf("kvcache: negative query id %d", id)
	}
	if t.get(id) != nil {
		return fmt.Errorf("kvcache: query %d already admitted", id)
	}
	if t.n > 0 {
		lo, hi := min(t.lo, id), max(t.lo+len(t.window())-1, id)
		if hi-lo >= maxIDSpan {
			return fmt.Errorf("kvcache: query %d is more than %d ids away from live query %d", id, maxIDSpan, t.lo)
		}
	}
	return nil
}

// put stores a query that check accepted.
func (t *table[T]) put(id int, v T) {
	w := len(t.window())
	switch {
	case w == 0:
		t.buf, t.head, t.lo = append(t.buf[:0], slot[T]{}), 0, id
	case id < t.lo:
		grown := make([]slot[T], t.lo-id+w)
		copy(grown[t.lo-id:], t.window())
		t.buf, t.head, t.lo = grown, 0, id
	case id-t.lo >= w:
		more := id - t.lo + 1 - w
		if len(t.buf)+more > cap(t.buf) && t.head >= w {
			t.buf, t.head = t.buf[:copy(t.buf, t.window())], 0
		}
		// Grow and clear rather than append a make: the compiler elides
		// that make only in optimized builds, not under -race.
		n := len(t.buf)
		t.buf = slices.Grow(t.buf, more)[:n+more]
		clear(t.buf[n:])
	}
	t.buf[t.head+id-t.lo] = slot[T]{v: v, ok: true}
	t.n++
}

// remove drops a live query and slides the window past any dead prefix.
func (t *table[T]) remove(id int) {
	t.buf[t.head+id-t.lo] = slot[T]{}
	t.n--
	for t.head < len(t.buf) && !t.buf[t.head].ok {
		t.head++
		t.lo++
	}
}

func unknown(op string, id int) error {
	return fmt.Errorf("kvcache: %s unknown query %d", op, id)
}

// Reserved reserves maxTokens per query up front (FT/DSI style).
type Reserved struct {
	mem           *hw.MemTracker
	bytesPerToken int64
	queries       table[reservedQuery]
	epoch         int64 // AppendAll calls so far
	live, used    int64
}

type reservedQuery struct {
	bytes int64 // reserved
	base  int64 // cached tokens minus epoch
}

// NewReserved returns a worst-case-reserving manager.
func NewReserved(mem *hw.MemTracker, bytesPerToken int64) *Reserved {
	return &Reserved{mem: mem, bytesPerToken: bytesPerToken}
}

// Admit implements Manager.
func (m *Reserved) Admit(id, promptTokens, maxTokens int) error {
	if err := m.queries.check(id); err != nil {
		return err
	}
	if maxTokens < promptTokens {
		return fmt.Errorf("kvcache: maxTokens %d < promptTokens %d", maxTokens, promptTokens)
	}
	n := int64(maxTokens) * m.bytesPerToken
	if err := m.mem.Alloc(n); err != nil {
		return err
	}
	m.queries.put(id, reservedQuery{bytes: n, base: int64(promptTokens) - m.epoch})
	m.live += int64(promptTokens)
	m.used += n
	return nil
}

// Append implements Manager; reserved space is pre-paid, so appends only
// advance the live-token count.
func (m *Reserved) Append(id int) error {
	q := m.queries.get(id)
	if q == nil {
		return unknown("append to", id)
	}
	q.base++
	m.live++
	return nil
}

// AppendAll implements Manager in O(1).
func (m *Reserved) AppendAll() error {
	m.epoch++
	m.live += int64(m.queries.n)
	return nil
}

// Release implements Manager.
func (m *Reserved) Release(id int) error {
	q := m.queries.get(id)
	if q == nil {
		return unknown("release of", id)
	}
	m.mem.Free(q.bytes)
	m.live -= q.base + m.epoch
	m.used -= q.bytes
	m.queries.remove(id)
	return nil
}

// LiveTokens implements Manager.
func (m *Reserved) LiveTokens() int64 { return m.live }

// UsedBytes implements Manager.
func (m *Reserved) UsedBytes() int64 { return m.used }

// Compacting allocates exactly the live tokens and reclaims released
// queries' space via compaction (ExeGPT XRunner style). Released bytes
// remain charged as fragmentation until Compact is called; Compact
// returns the number of bytes that had to be moved, which the runner can
// convert into a time cost.
type Compacting struct {
	mem           *hw.MemTracker
	bytesPerToken int64
	queries       table[int64] // cached tokens minus epoch
	epoch         int64        // AppendAll calls so far
	live          int64
	fragBytes     int64
}

// NewCompacting returns an exact-size manager with explicit compaction.
func NewCompacting(mem *hw.MemTracker, bytesPerToken int64) *Compacting {
	return &Compacting{mem: mem, bytesPerToken: bytesPerToken}
}

// Admit implements Manager; maxTokens is ignored (no over-reservation).
func (m *Compacting) Admit(id, promptTokens, maxTokens int) error {
	if err := m.queries.check(id); err != nil {
		return err
	}
	n := int64(promptTokens) * m.bytesPerToken
	if err := m.mem.Alloc(n); err != nil {
		return err
	}
	m.queries.put(id, int64(promptTokens)-m.epoch)
	m.live += int64(promptTokens)
	return nil
}

// Append implements Manager.
func (m *Compacting) Append(id int) error {
	base := m.queries.get(id)
	if base == nil {
		return unknown("append to", id)
	}
	if err := m.mem.Alloc(m.bytesPerToken); err != nil {
		return err
	}
	*base++
	m.live++
	return nil
}

// AppendAll implements Manager in O(1) with one tracker charge.
func (m *Compacting) AppendAll() error {
	n := int64(m.queries.n)
	if err := m.mem.Alloc(n * m.bytesPerToken); err != nil {
		return err
	}
	m.epoch++
	m.live += n
	return nil
}

// Release implements Manager: the space becomes fragmentation until the
// next Compact.
func (m *Compacting) Release(id int) error {
	base := m.queries.get(id)
	if base == nil {
		return unknown("release of", id)
	}
	n := *base + m.epoch
	m.fragBytes += n * m.bytesPerToken
	m.live -= n
	m.queries.remove(id)
	return nil
}

// Compact reclaims fragmentation and returns the bytes of live cache
// moved (an upper bound: all live bytes shift left past the holes).
func (m *Compacting) Compact() (movedBytes int64) {
	if m.fragBytes == 0 {
		return 0
	}
	moved := m.live * m.bytesPerToken
	m.mem.Free(m.fragBytes)
	m.fragBytes = 0
	return moved
}

// FragBytes returns the bytes awaiting compaction.
func (m *Compacting) FragBytes() int64 { return m.fragBytes }

// LiveTokens implements Manager.
func (m *Compacting) LiveTokens() int64 { return m.live }

// UsedBytes implements Manager.
func (m *Compacting) UsedBytes() int64 {
	return m.live*m.bytesPerToken + m.fragBytes
}

// Paged allocates cache in fixed-size pages (vLLM PagedAttention).
type Paged struct {
	mem           *hw.MemTracker
	bytesPerToken int64
	pageTokens    int64
	queries       table[pagedQuery]
	live, pages   int64
}

type pagedQuery struct{ tokens, pages int64 }

// NewPaged returns a paged manager with the given page size in tokens.
func NewPaged(mem *hw.MemTracker, bytesPerToken int64, pageTokens int) *Paged {
	if pageTokens < 1 {
		pageTokens = 1
	}
	return &Paged{mem: mem, bytesPerToken: bytesPerToken, pageTokens: int64(pageTokens)}
}

func (m *Paged) pagesFor(tokens int64) int64 {
	return (tokens + m.pageTokens - 1) / m.pageTokens
}

func (m *Paged) pageBytes() int64 { return m.pageTokens * m.bytesPerToken }

// Admit implements Manager; maxTokens is ignored (on-demand paging).
func (m *Paged) Admit(id, promptTokens, maxTokens int) error {
	if err := m.queries.check(id); err != nil {
		return err
	}
	p := m.pagesFor(int64(promptTokens))
	if err := m.mem.Alloc(p * m.pageBytes()); err != nil {
		return err
	}
	m.queries.put(id, pagedQuery{tokens: int64(promptTokens), pages: p})
	m.live += int64(promptTokens)
	m.pages += p
	return nil
}

// Append implements Manager, allocating a new page when the current one
// fills.
func (m *Paged) Append(id int) error {
	q := m.queries.get(id)
	if q == nil {
		return unknown("append to", id)
	}
	if need := m.pagesFor(q.tokens + 1); need > q.pages {
		if err := m.mem.Alloc(m.pageBytes()); err != nil {
			return err
		}
		q.pages = need
		m.pages++
	}
	q.tokens++
	m.live++
	return nil
}

// AppendAll implements Manager in O(live queries): it counts the pages
// the step crosses into, charges them at once, then advances every query.
func (m *Paged) AppendAll() error {
	var fresh int64
	w := m.queries.window()
	for i := range w {
		if s := &w[i]; s.ok && m.pagesFor(s.v.tokens+1) > s.v.pages {
			fresh++
		}
	}
	if err := m.mem.Alloc(fresh * m.pageBytes()); err != nil {
		return err
	}
	for i := range w {
		if s := &w[i]; s.ok {
			s.v.tokens++
			s.v.pages = max(s.v.pages, m.pagesFor(s.v.tokens))
		}
	}
	m.live += int64(m.queries.n)
	m.pages += fresh
	return nil
}

// Release implements Manager; pages are freed immediately.
func (m *Paged) Release(id int) error {
	q := m.queries.get(id)
	if q == nil {
		return unknown("release of", id)
	}
	m.mem.Free(q.pages * m.pageBytes())
	m.live -= q.tokens
	m.pages -= q.pages
	m.queries.remove(id)
	return nil
}

// LiveTokens implements Manager.
func (m *Paged) LiveTokens() int64 { return m.live }

// UsedBytes implements Manager.
func (m *Paged) UsedBytes() int64 { return m.pages * m.pageBytes() }

var (
	_ Manager = (*Reserved)(nil)
	_ Manager = (*Compacting)(nil)
	_ Manager = (*Paged)(nil)
)

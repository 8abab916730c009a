package kvcache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"exegpt/internal/hw"
)

func trackers() *hw.MemTracker { return hw.NewMemTracker(1 << 20) }

// internalWaste returns m's allocated-but-unused bytes (paging overhead).
func internalWaste(m *Paged) int64 {
	return m.UsedBytes() - m.live*m.bytesPerToken
}

func TestReservedWorstCase(t *testing.T) {
	mem := trackers()
	m := NewReserved(mem, 10)
	if err := m.Admit(1, 5, 100); err != nil {
		t.Fatal(err)
	}
	if m.UsedBytes() != 1000 || mem.Used() != 1000 {
		t.Fatalf("reserved bytes = %d, want 1000", m.UsedBytes())
	}
	if m.LiveTokens() != 5 {
		t.Fatalf("live tokens = %d", m.LiveTokens())
	}
	for i := 0; i < 3; i++ {
		if err := m.Append(1); err != nil {
			t.Fatal(err)
		}
	}
	if m.LiveTokens() != 8 || m.UsedBytes() != 1000 {
		t.Fatal("append should not change reserved bytes")
	}
	if err := m.Release(1); err != nil {
		t.Fatal(err)
	}
	if mem.Used() != 0 || m.LiveTokens() != 0 {
		t.Fatal("release should free everything")
	}
}

func TestReservedErrors(t *testing.T) {
	m := NewReserved(trackers(), 10)
	if err := m.Admit(1, 10, 5); err == nil {
		t.Fatal("max < prompt should fail")
	}
	if err := m.Admit(1, 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := m.Admit(1, 1, 10); err == nil {
		t.Fatal("double admit should fail")
	}
	if err := m.Append(2); err == nil {
		t.Fatal("append unknown should fail")
	}
	if err := m.Release(2); err == nil {
		t.Fatal("release unknown should fail")
	}
}

func TestReservedOOM(t *testing.T) {
	mem := hw.NewMemTracker(100)
	m := NewReserved(mem, 10)
	if err := m.Admit(1, 1, 20); err == nil {
		t.Fatal("expected OOM")
	}
	if mem.Used() != 0 {
		t.Fatal("failed admit must not leak")
	}
}

func TestCompactingExactAndFrag(t *testing.T) {
	mem := trackers()
	m := NewCompacting(mem, 10)
	if err := m.Admit(1, 50, 9999); err != nil {
		t.Fatal(err)
	}
	if m.UsedBytes() != 500 {
		t.Fatalf("used = %d, want exactly 500 (no over-reservation)", m.UsedBytes())
	}
	if err := m.Admit(2, 30, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(2); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(1); err != nil {
		t.Fatal(err)
	}
	// Released bytes linger as fragmentation.
	if m.FragBytes() != 500 || m.UsedBytes() != 500+310 {
		t.Fatalf("frag=%d used=%d", m.FragBytes(), m.UsedBytes())
	}
	moved := m.Compact()
	if moved != 310 {
		t.Fatalf("compact moved %d, want 310 (live bytes)", moved)
	}
	if m.FragBytes() != 0 || m.UsedBytes() != 310 || mem.Used() != 310 {
		t.Fatalf("after compact frag=%d used=%d mem=%d", m.FragBytes(), m.UsedBytes(), mem.Used())
	}
	if m.Compact() != 0 {
		t.Fatal("compact with no frag should be free")
	}
}

func TestCompactingErrors(t *testing.T) {
	m := NewCompacting(trackers(), 10)
	if err := m.Append(1); err == nil {
		t.Fatal("append unknown should fail")
	}
	if err := m.Release(1); err == nil {
		t.Fatal("release unknown should fail")
	}
	if err := m.Admit(1, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Admit(1, 1, 0); err == nil {
		t.Fatal("double admit should fail")
	}
}

func TestPagedGranularity(t *testing.T) {
	mem := trackers()
	m := NewPaged(mem, 10, 16)
	if err := m.Admit(1, 17, 0); err != nil {
		t.Fatal(err)
	}
	// 17 tokens -> 2 pages of 16 tokens.
	if m.UsedBytes() != 2*16*10 {
		t.Fatalf("used = %d, want 320", m.UsedBytes())
	}
	if internalWaste(m) != (32-17)*10 {
		t.Fatalf("waste = %d", internalWaste(m))
	}
	// Appends within the page are free; crossing allocates one page.
	for i := 0; i < 15; i++ {
		if err := m.Append(1); err != nil {
			t.Fatal(err)
		}
	}
	if m.UsedBytes() != 320 {
		t.Fatalf("used = %d, want 320 (page not full)", m.UsedBytes())
	}
	if err := m.Append(1); err != nil {
		t.Fatal(err)
	}
	if m.UsedBytes() != 480 {
		t.Fatalf("used = %d, want 480 after page crossing", m.UsedBytes())
	}
	if err := m.Release(1); err != nil {
		t.Fatal(err)
	}
	if mem.Used() != 0 {
		t.Fatal("paged release must free all pages")
	}
}

func TestPagedErrorsAndClamp(t *testing.T) {
	m := NewPaged(trackers(), 10, 0) // clamps page to 1 token
	if err := m.Admit(1, 3, 0); err != nil {
		t.Fatal(err)
	}
	if internalWaste(m) != 0 {
		t.Fatal("1-token pages have no waste")
	}
	if err := m.Admit(1, 1, 0); err == nil {
		t.Fatal("double admit should fail")
	}
	if err := m.Append(9); err == nil {
		t.Fatal("append unknown should fail")
	}
	if err := m.Release(9); err == nil {
		t.Fatal("release unknown should fail")
	}
}

// Paged waste is bounded by one page per query; Reserved waste is
// unbounded (worst-case reservation).
func TestWasteComparison(t *testing.T) {
	mem1, mem2 := trackers(), trackers()
	res := NewReserved(mem1, 1)
	pag := NewPaged(mem2, 1, 16)
	for id := 0; id < 10; id++ {
		if err := res.Admit(id, 10, 640); err != nil {
			t.Fatal(err)
		}
		if err := pag.Admit(id, 10, 640); err != nil {
			t.Fatal(err)
		}
	}
	if res.UsedBytes() <= pag.UsedBytes() {
		t.Fatalf("reserved %d should waste more than paged %d", res.UsedBytes(), pag.UsedBytes())
	}
	if internalWaste(pag) > 10*16 {
		t.Fatalf("paged waste %d exceeds one page per query", internalWaste(pag))
	}
}

func TestNegativeAndFarIDs(t *testing.T) {
	for name, m := range map[string]Manager{
		"reserved":   NewReserved(trackers(), 1),
		"compacting": NewCompacting(trackers(), 1),
		"paged":      NewPaged(trackers(), 1, 4),
	} {
		if err := m.Admit(-1, 1, 1); err == nil {
			t.Errorf("%s: negative id admitted", name)
		}
		if m.Append(-1) == nil || m.Release(-1) == nil {
			t.Errorf("%s: negative id accepted as live", name)
		}
		if err := m.Admit(5, 1, 1); err != nil {
			t.Fatal(err)
		}
		if err := m.Admit(5+maxIDSpan, 1, 1); err == nil {
			t.Errorf("%s: id beyond the span limit admitted", name)
		}
		if err := m.Admit(5+1000, 1, 1); err != nil {
			t.Errorf("%s: far id within the span limit: %v", name, err)
		}
		if m.LiveTokens() != 2 {
			t.Errorf("%s: live tokens %d after two admits", name, m.LiveTokens())
		}
	}
}

// A stream of ever-growing ids with a bounded live set, as an open-loop
// server produces, reuses one table buffer of size proportional to the
// live set.
func TestTableReusesBufferForGrowingIDs(t *testing.T) {
	m := NewCompacting(trackers(), 1)
	const live = 64
	for id := 0; id < 100*live; id++ {
		if err := m.Admit(id, 1, 0); err != nil {
			t.Fatal(err)
		}
		if id >= live {
			if err := m.Release(id - live); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c := cap(m.queries.buf); c > 4*live {
		t.Fatalf("table buffer grew to %d slots for %d live queries", c, live)
	}
	if m.LiveTokens() != live || m.queries.get(100*live-1) == nil || m.queries.get(99*live-1) != nil {
		t.Fatalf("window lost track of live queries: live %d", m.LiveTokens())
	}
}

// kvOp is one operation of the oracle test's log.
type kvOp struct {
	kind             byte // 'a'dmit, 'p'append, 'A'ppendAll, 'r'elease, 'c'ompact
	id, prompt, maxT int
}

// oracle rebuilds a manager's expected state by replaying an op log from
// scratch: per-query token counts, the bytes each discipline charges, and
// which ops must fail.
type oracle struct {
	kind       int // 0 reserved, 1 compacting, 2 paged
	bpt, page  int64
	capacity   int64
	tokens     map[int]int64
	charge     map[int]int64 // bytes held per query
	frag       int64
	live, used int64
}

func (o *oracle) pages(tokens int64) int64 { return (tokens + o.page - 1) / o.page }

// appendCost returns the bytes one more token of query id charges.
func (o *oracle) appendCost(id int) int64 {
	switch o.kind {
	case 1:
		return o.bpt
	case 2:
		if o.pages(o.tokens[id]+1) > o.pages(o.tokens[id]) {
			return o.page * o.bpt
		}
	}
	return 0
}

// apply performs op and reports whether it must succeed.
func (o *oracle) apply(op kvOp) bool {
	_, known := o.tokens[op.id]
	switch op.kind {
	case 'a':
		var cost int64
		switch o.kind {
		case 0:
			if op.maxT < op.prompt {
				return false
			}
			cost = int64(op.maxT) * o.bpt
		case 1:
			cost = int64(op.prompt) * o.bpt
		case 2:
			cost = o.pages(int64(op.prompt)) * o.page * o.bpt
		}
		if op.id < 0 || known || o.used+cost > o.capacity {
			return false
		}
		o.tokens[op.id], o.charge[op.id] = int64(op.prompt), cost
		o.used += cost
	case 'p':
		if !known || o.used+o.appendCost(op.id) > o.capacity {
			return false
		}
		c := o.appendCost(op.id)
		o.tokens[op.id]++
		o.charge[op.id] += c
		o.used += c
	case 'A':
		var cost int64
		for id := range o.tokens {
			cost += o.appendCost(id)
		}
		if o.used+cost > o.capacity {
			return false
		}
		for id := range o.tokens {
			c := o.appendCost(id)
			o.tokens[id]++
			o.charge[id] += c
		}
		o.used += cost
	case 'r':
		if !known {
			return false
		}
		if o.kind == 1 {
			o.frag += o.charge[op.id] // stays charged until Compact
		} else {
			o.used -= o.charge[op.id]
		}
		delete(o.tokens, op.id)
		delete(o.charge, op.id)
	case 'c':
		o.used -= o.frag
		o.frag = 0
	}
	return true
}

func replay(kind int, capacity int64, log []kvOp) (*oracle, bool) {
	o := &oracle{kind: kind, bpt: 4, page: 8, capacity: capacity,
		tokens: map[int]int64{}, charge: map[int]int64{}}
	ok := true
	for _, op := range log {
		ok = o.apply(op)
	}
	for _, n := range o.tokens {
		o.live += n
	}
	return o, ok
}

// Property: after every op of any sequence — admits of sparse,
// out-of-order, duplicate and negative ids, appends (one and all),
// releases, compactions, unknown ids, out-of-memory — each manager's
// LiveTokens and UsedBytes equal a brute-force replay of the op log, its
// errors are exactly the replay's, its UsedBytes equals the tracker's
// charge, and releasing everything then compacting returns the tracker
// to zero.
func TestQuickManagersConsistent(t *testing.T) {
	const capacity = 6 << 10
	f := func(ops []uint8, kind uint8) bool {
		mem := hw.NewMemTracker(capacity)
		var m Manager
		switch kind % 3 {
		case 0:
			m = NewReserved(mem, 4)
		case 1:
			m = NewCompacting(mem, 4)
		default:
			m = NewPaged(mem, 4, 8)
		}
		var log []kvOp
		live := func() []int {
			o, _ := replay(int(kind%3), capacity, log)
			ids := make([]int, 0, len(o.tokens))
			for id := range o.tokens {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			return ids
		}
		pick := func(op uint8) int {
			if ids := live(); len(ids) > 0 {
				return ids[int(op/8)%len(ids)]
			}
			return int(op)
		}
		do := func(op kvOp) error {
			switch op.kind {
			case 'a':
				return m.Admit(op.id, op.prompt, op.maxT)
			case 'p':
				return m.Append(op.id)
			case 'A':
				return m.AppendAll()
			case 'r':
				return m.Release(op.id)
			case 'c':
				if c, ok := m.(*Compacting); ok {
					c.Compact()
				}
			}
			return nil
		}
		check := func(op kvOp, err error) error {
			log = append(log, op)
			o, ok := replay(int(kind%3), capacity, log)
			switch {
			case ok != (err == nil):
				return fmt.Errorf("%c %d: err = %v, oracle ok = %v", op.kind, op.id, err, ok)
			case m.LiveTokens() != o.live:
				return fmt.Errorf("%c %d: live %d, oracle %d", op.kind, op.id, m.LiveTokens(), o.live)
			case m.UsedBytes() != o.used || mem.Used() != o.used:
				return fmt.Errorf("%c %d: used %d, tracker %d, oracle %d", op.kind, op.id, m.UsedBytes(), mem.Used(), o.used)
			}
			return nil
		}
		for _, b := range ops {
			var op kvOp
			switch b % 8 {
			case 0, 1: // sparse, out-of-order ids; some collide with live ones
				op = kvOp{kind: 'a', id: int(b) * 13 % 1999, prompt: int(b%50) + 1, maxT: int(b%50) + int(b%40) - 7}
			case 2:
				op = kvOp{kind: 'a', id: pick(b), prompt: 1, maxT: 1} // duplicate
			case 3:
				op = kvOp{kind: 'p', id: pick(b)}
			case 4:
				op = kvOp{kind: 'A'}
			case 5:
				op = kvOp{kind: 'r', id: pick(b)}
			case 6:
				op = kvOp{kind: 'c'}
			default: // unknown or negative ids
				op = kvOp{kind: "apr"[b%3], id: -1 - int(b), prompt: 1, maxT: 1}
				if b%2 == 0 {
					op.id = 5000 + int(b)
				}
			}
			if err := check(op, do(op)); err != nil {
				t.Log(err)
				return false
			}
		}
		for _, id := range live() {
			op := kvOp{kind: 'r', id: id}
			if err := check(op, do(op)); err != nil {
				t.Log(err)
				return false
			}
		}
		do(kvOp{kind: 'c'})
		if mem.Used() != 0 || m.LiveTokens() != 0 {
			t.Logf("after releasing everything: tracker %d, live %d", mem.Used(), m.LiveTokens())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Fatal(err)
	}
}

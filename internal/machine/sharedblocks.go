package machine

import (
	"bytes"
	"sync"

	"hipstr/internal/isa"
)

// Bounds of one SharedBlocks table. A key holds several candidates
// because siblings may legitimately run different bytes at one address
// (a respawn re-randomizes its translations into the same code cache
// region). The total bounds what an adversarial decode sweep can pin.
const (
	maxSharedCandidates = 4
	maxSharedBodies     = 1 << 12
)

// SharedBlocks is a table of decoded block bodies shared by machines that
// run the same code at the same addresses — the forks and respawns of one
// dbt snapshot. Each machine fetches as usual, then reuses a published
// body for (ISA, PC) only when its own fetch window starts with the exact
// bytes that body decoded from. Verification is by content, not page
// identity: siblings write their own code-cache pages, so identical code
// usually sits in private pages, while copy-on-write divergence,
// self-modifying code and re-randomized respawns change the bytes and
// therefore never match a stale body.
//
// Only bodies whose decode ended naturally — at a block terminator or at
// BlockCap — are published, because only those depend on nothing but
// their bytes [lo, hi) (FuzzDecodeBlock checks this). A block cut short by
// an undecodable byte or by the end of the fetch window depends on what
// lay beyond it and stays private to the machine that decoded it.
//
// The table is bounded and never evicts: once full it stops publishing
// and later refills decode privately. The zero value is an empty table,
// safe for concurrent use.
type SharedBlocks struct {
	mu     sync.Mutex
	bodies map[blockRef][]*sharedBody
	n      int
}

// sharedBody is a published body together with the bytes it decoded from.
type sharedBody struct {
	blockBody
	code []byte
}

// ShareBlocks attaches t to the machine's block cache: later refills
// reuse t's bodies and publish to it. Attach before the first Run; a nil
// t keeps the machine's refills private.
func (m *Machine) ShareBlocks(t *SharedBlocks) { m.blocks.shared = t }

// lookup returns the published body for (k, pc) whose bytes prefix win,
// or nil. At most one candidate can match: a natural decode of any window
// that starts with a body's bytes is that body.
func (t *SharedBlocks) lookup(k isa.Kind, pc uint32, win []byte) *sharedBody {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sb := range t.bodies[blockRef{pc: pc, k: k}] {
		if bytes.HasPrefix(win, sb.code) {
			return sb
		}
	}
	return nil
}

// publish offers the body decoded at (k, pc) from the head of win. It
// returns the table's body for those bytes — the offered one, or an
// identical one a sibling published first — or nil when the decode ended
// unnaturally or the table has no room, in which case the caller keeps
// its body private.
func (t *SharedBlocks) publish(k isa.Kind, pc uint32, insts []isa.Inst, fused []isa.FusedInst, win []byte) *sharedBody {
	last := &insts[len(insts)-1]
	if len(insts) < BlockCap && !last.EndsBlock() {
		return nil
	}
	code := win[:last.Addr+uint32(last.Size)-pc]
	key := blockRef{pc: pc, k: k}
	t.mu.Lock()
	defer t.mu.Unlock()
	cands := t.bodies[key]
	for _, sb := range cands {
		if bytes.Equal(sb.code, code) {
			return sb
		}
	}
	if len(cands) >= maxSharedCandidates || t.n >= maxSharedBodies {
		return nil
	}
	sb := &sharedBody{
		blockBody: blockBody{Insts: insts, Fused: fused},
		code:      append([]byte(nil), code...),
	}
	if t.bodies == nil {
		t.bodies = make(map[blockRef][]*sharedBody)
	}
	t.bodies[key] = append(cands, sb)
	t.n++
	return sb
}

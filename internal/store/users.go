package store

import (
	"cmp"
	"slices"
	"sync"
	"unsafe"

	"msgscope/internal/ids"
	"msgscope/internal/platform"
)

// userTable is the columnar user family behind one mutex: packed numeric
// columns, phone hashes in a byte arena, countries interned to handles.
// Linked-account sets (rare; Discord only) live in a sparse side map. mu
// guards every field, the countries table and the sorted cache included.
type userTable struct {
	mu      sync.Mutex
	m       map[userKey]uint32 // key -> row
	plat    []uint8
	key     []uint64
	phOff   []uint32
	phLen   []uint32
	country []uint32
	creator []bool
	linked  map[uint32][]string
	arena   []byte

	countries *ids.Table

	// Checkpoint dirty tracking (armed by OpenCheckpointWriter): rows
	// below ckMark were already captured, so a merge that actually
	// changes one records it in ckDirty for re-emission. Nil when
	// checkpointing is off.
	ckMark  uint32
	ckDirty map[uint32]struct{}

	// sorted holds the rows in (platform, key) order; dirty says a row was
	// added since it was built.
	dirty  bool
	sorted []uint32
}

func newUserTable() *userTable {
	ut := &userTable{m: map[userKey]uint32{}, countries: ids.NewTable()}
	ut.countries.Handle("") // handle 0 is the empty country
	return ut
}

// phoneAt returns the stored phone hash as a zero-copy view. Caller holds
// ut.mu.
func (ut *userTable) phoneAt(row uint32) string {
	if ut.phLen[row] == 0 {
		return ""
	}
	return unsafe.String(&ut.arena[ut.phOff[row]], int(ut.phLen[row]))
}

// heapBytes is the family's column footprint — part of the resident floor
// SpillStats reports (merges rewrite rows in place, so the user family
// never spills). Caller holds ut.mu.
func (ut *userTable) heapBytes() int64 {
	return sliceBytes(ut.plat) + sliceBytes(ut.key) + sliceBytes(ut.phOff) +
		sliceBytes(ut.phLen) + sliceBytes(ut.country) + sliceBytes(ut.creator) +
		int64(cap(ut.arena))
}

// recordLocked materializes row's record. Caller holds ut.mu; the
// record's strings alias the interned countries and the phone arena.
func (ut *userTable) recordLocked(row uint32) UserRecord {
	return UserRecord{
		Platform:  platform.Platform(ut.plat[row]),
		Key:       ut.key[row],
		PhoneHash: ut.phoneAt(row),
		Country:   ut.countries.Lookup(ut.country[row]),
		Linked:    ut.linked[row],
		Creator:   ut.creator[row],
	}
}

// upsert merges one observed user under ut.mu: fields fill in, Linked
// accumulates as a set, Creator only ever clears — commutative, so
// concurrent batches land in the same final state in any interleaving.
func (ut *userTable) upsert(u *UserRecord) {
	ut.mu.Lock()
	ut.upsertLocked(u)
	ut.mu.Unlock()
}

func (ut *userTable) upsertLocked(u *UserRecord) {
	k := userKey{u.Platform, u.Key}
	row, ok := ut.m[k]
	if !ok {
		row = uint32(len(ut.key))
		ut.m[k] = row
		ut.plat = append(ut.plat, uint8(u.Platform))
		ut.key = append(ut.key, u.Key)
		ut.phOff = append(ut.phOff, uint32(len(ut.arena)))
		ut.phLen = append(ut.phLen, uint32(len(u.PhoneHash)))
		ut.arena = append(ut.arena, u.PhoneHash...)
		var country uint32
		if u.Country != "" {
			country = ut.countries.Handle(u.Country)
		}
		ut.country = append(ut.country, country)
		ut.creator = append(ut.creator, u.Creator)
		if len(u.Linked) > 0 {
			if ut.linked == nil {
				ut.linked = map[uint32][]string{}
			}
			ut.linked[row] = u.Linked
		}
		ut.dirty = true
		return
	}
	changed := false
	if u.PhoneHash != "" && u.PhoneHash != ut.phoneAt(row) {
		if uint32(len(u.PhoneHash)) <= ut.phLen[row] {
			copy(ut.arena[ut.phOff[row]:], u.PhoneHash)
		} else {
			ut.phOff[row] = uint32(len(ut.arena))
			ut.arena = append(ut.arena, u.PhoneHash...)
		}
		ut.phLen[row] = uint32(len(u.PhoneHash))
		changed = true
	}
	if u.Country != "" {
		if h := ut.countries.Handle(u.Country); ut.country[row] != h {
			ut.country[row] = h
			changed = true
		}
	}
	if len(u.Linked) > 0 {
		// The merge is a set union, so growth ⇔ change.
		old := ut.linked[row]
		if merged := mergeStrings(old, u.Linked); len(merged) != len(old) {
			if ut.linked == nil {
				ut.linked = map[uint32][]string{}
			}
			ut.linked[row] = merged
			changed = true
		}
	}
	// A user seen as a member is no longer creator-only.
	if !u.Creator && ut.creator[row] {
		ut.creator[row] = false
		changed = true
	}
	if changed && ut.ckDirty != nil && row < ut.ckMark {
		ut.ckDirty[row] = struct{}{}
	}
}

// rebuildLocked refreshes the sorted (platform, key) row cache. Caller
// holds ut.mu.
func (ut *userTable) rebuildLocked() {
	if !ut.dirty && ut.sorted != nil {
		return
	}
	ut.dirty = false
	// Sorting (platform, key, row) entries keeps every comparison in one
	// contiguous array; comparing rows through the columns costs two
	// random reads per probe, measurably slower at join-phase user counts.
	type entry struct {
		key uint64
		row uint32
		p   uint8
	}
	all := make([]entry, len(ut.key))
	for row, k := range ut.key {
		all[row] = entry{k, uint32(row), ut.plat[row]}
	}
	slices.SortFunc(all, func(a, b entry) int {
		if c := cmp.Compare(a.p, b.p); c != 0 {
			return c
		}
		return cmp.Compare(a.key, b.key)
	})
	ut.sorted = make([]uint32, len(all))
	for i, e := range all {
		ut.sorted[i] = e.row
	}
}

// users materializes the sorted user records. There are no per-user heap
// records to point at, so each call builds a fresh backing array; records
// share the store's interned strings and arena-backed phone hashes.
func (ut *userTable) users() []*UserRecord {
	ut.mu.Lock()
	defer ut.mu.Unlock()
	return ut.materializeLocked()
}

// materializeLocked resolves the sorted rows into records. Caller holds
// ut.mu.
func (ut *userTable) materializeLocked() []*UserRecord {
	ut.rebuildLocked()
	backing := make([]UserRecord, len(ut.sorted))
	out := make([]*UserRecord, len(ut.sorted))
	for i, row := range ut.sorted {
		backing[i] = ut.recordLocked(row)
		out[i] = &backing[i]
	}
	return out
}

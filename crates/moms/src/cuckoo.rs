//! Cuckoo-hashed MSHR store.
//!
//! The scalability trick of the MOMS (FPGA'19 \[6\]): MSHRs live in ordinary
//! RAM indexed by d independent hash functions instead of a fully
//! associative CAM, so thousands of entries fit in BRAM. An insertion that
//! finds all d candidate slots occupied displaces one occupant
//! ("kicks" it) to one of its alternative slots, possibly chaining; each
//! kick costs a pipeline cycle, and a chain longer than `max_kicks` makes
//! the insertion fail (the bank stalls and retries).

/// Payload stored per MSHR: the subentry list handles plus a count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrEntry {
    /// Cache-line address this MSHR tracks.
    pub line: u64,
    /// Head row index in the subentry buffer.
    pub head_row: u32,
    /// Tail row index in the subentry buffer.
    pub tail_row: u32,
    /// Number of pending subentries.
    pub pending: u32,
}

/// Result of a cuckoo insertion attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Entry placed; the insertion consumed `1 + kicks` pipeline cycles.
    Placed {
        /// Number of displacements performed.
        kicks: u32,
    },
    /// The displacement chain exceeded `max_kicks`; the table is unchanged
    /// and the caller must stall and retry.
    Failed,
}

/// A d-ary cuckoo hash table of [`MshrEntry`]s keyed by line address, or a
/// fully associative table when constructed with zero ways (traditional
/// nonblocking caches).
///
/// # Example
///
/// ```
/// use moms::cuckoo::{CuckooMshr, MshrEntry};
///
/// let mut t = CuckooMshr::new(64, 4, 8);
/// let e = MshrEntry { line: 42, head_row: 0, tail_row: 0, pending: 1 };
/// assert!(matches!(t.insert(e), moms::cuckoo::InsertOutcome::Placed { .. }));
/// assert_eq!(t.lookup(42).unwrap().line, 42);
/// assert!(t.remove(42).is_some());
/// assert!(t.lookup(42).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct CuckooMshr {
    /// `ways` tables of `slots_per_way` slots each; fully associative mode
    /// uses a single linear table.
    slots: Vec<Option<MshrEntry>>,
    ways: usize,
    slots_per_way: usize,
    max_kicks: usize,
    occupancy: usize,
    peak_occupancy: usize,
    /// Persistent BFS scratch (allocated once; the insert slow path is hot
    /// at high occupancy and must not allocate per call).
    scratch: BfsScratch,
}

/// Reusable BFS working set for cuckoo eviction-path search. Visited marks
/// are epoch-stamped so reuse costs nothing: a slot is visited in the
/// current search iff `stamp[slot] == epoch`.
#[derive(Debug, Clone)]
struct BfsScratch {
    /// Parent slot on the eviction path; `u32::MAX` marks a start slot.
    parent: Vec<u32>,
    depth: Vec<u32>,
    stamp: Vec<u32>,
    queue: Vec<u32>,
    epoch: u32,
}

impl BfsScratch {
    fn new(capacity: usize) -> Self {
        BfsScratch {
            parent: vec![u32::MAX; capacity],
            depth: vec![0; capacity],
            stamp: vec![0; capacity],
            queue: Vec::with_capacity(capacity),
            epoch: 0,
        }
    }

    /// Starts a fresh search: bumps the epoch (resetting stamps lazily)
    /// and empties the queue.
    fn begin(&mut self) {
        self.queue.clear();
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    fn visited(&self, slot: usize) -> bool {
        self.stamp[slot] == self.epoch
    }

    fn visit(&mut self, slot: usize, depth: u32, parent: u32) {
        self.stamp[slot] = self.epoch;
        self.depth[slot] = depth;
        self.parent[slot] = parent;
    }
}

/// SplitMix-style finalizer with a per-way tweak (free function so the
/// insert path can hash while holding disjoint borrows of the table).
#[inline]
fn hash_slot(way: usize, line: u64, slots_per_way: usize) -> usize {
    let mut z = line ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(way as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    way * slots_per_way + simkit::fast_mod(z, slots_per_way as u64) as usize
}

impl CuckooMshr {
    /// Creates a table with `capacity` total slots split over `ways` hash
    /// tables (`ways == 0` selects fully associative lookup).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or not divisible by `ways` (when
    /// `ways > 0`).
    pub fn new(capacity: usize, ways: usize, max_kicks: usize) -> Self {
        assert!(capacity > 0, "capacity must be nonzero");
        if ways > 0 {
            assert_eq!(capacity % ways, 0, "capacity must divide evenly by ways");
        }
        CuckooMshr {
            slots: vec![None; capacity],
            ways,
            slots_per_way: capacity.checked_div(ways).unwrap_or(capacity),
            max_kicks,
            occupancy: 0,
            peak_occupancy: 0,
            scratch: BfsScratch::new(capacity),
        }
    }

    /// Number of live entries.
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Highest occupancy ever reached.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// `true` when every slot is occupied.
    pub fn is_full(&self) -> bool {
        self.occupancy == self.slots.len()
    }

    fn hash(&self, way: usize, line: u64) -> usize {
        hash_slot(way, line, self.slots_per_way)
    }

    /// Slot index holding the entry for `line`, if present. Pair with
    /// [`at_mut`](Self::at_mut) to update an entry after a single probe.
    pub fn find(&self, line: u64) -> Option<usize> {
        if self.ways == 0 {
            return self
                .slots
                .iter()
                .position(|s| matches!(s, Some(e) if e.line == line));
        }
        (0..self.ways)
            .map(|w| self.hash(w, line))
            .find(|&idx| matches!(&self.slots[idx], Some(e) if e.line == line))
    }

    /// Finds the entry for `line`, if present.
    pub fn lookup(&self, line: u64) -> Option<&MshrEntry> {
        self.find(line).and_then(|idx| self.slots[idx].as_ref())
    }

    /// The entry in `slot`, as returned by [`find`](Self::find).
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub fn at_mut(&mut self, slot: usize) -> &mut MshrEntry {
        self.slots[slot].as_mut().expect("occupied MSHR slot")
    }

    /// Inserts a fresh entry.
    ///
    /// Fully associative mode scans for any free slot. Cuckoo mode tries
    /// the d candidate slots and then displaces occupants up to
    /// `max_kicks` times.
    ///
    /// # Panics
    ///
    /// Panics (debug) if an entry for the same line already exists —
    /// callers must update the existing entry (see [`find`](Self::find))
    /// for secondary misses.
    pub fn insert(&mut self, entry: MshrEntry) -> InsertOutcome {
        debug_assert!(self.lookup(entry.line).is_none(), "duplicate MSHR");
        if self.ways == 0 {
            if let Some(slot) = self.slots.iter_mut().find(|s| s.is_none()) {
                *slot = Some(entry);
                self.note_insert();
                return InsertOutcome::Placed { kicks: 0 };
            }
            return InsertOutcome::Failed;
        }

        // Fast path: any empty candidate slot.
        for w in 0..self.ways {
            let idx = self.hash(w, entry.line);
            if self.slots[idx].is_none() {
                self.slots[idx] = Some(entry);
                self.note_insert();
                return InsertOutcome::Placed { kicks: 0 };
            }
        }

        // BFS over the cuckoo graph for an eviction path ending in an
        // empty slot, bounded by `max_kicks` displacements. On success the
        // entries along the path shift one step and the new entry takes
        // the first slot; on failure the table is untouched. (Hardware
        // performs the same displacements sequentially, one per cycle,
        // which is the cost we report as `kicks`.)
        let (ways, spw, max_kicks) = (self.ways, self.slots_per_way, self.max_kicks);
        self.scratch.begin();
        for w in 0..ways {
            let s = hash_slot(w, entry.line, spw);
            if !self.scratch.visited(s) {
                self.scratch.visit(s, 1, u32::MAX);
                self.scratch.queue.push(s as u32);
            }
        }
        let mut qhead = 0usize;
        while qhead < self.scratch.queue.len() {
            let slot = self.scratch.queue[qhead] as usize;
            qhead += 1;
            if self.scratch.depth[slot] as usize > max_kicks {
                continue;
            }
            let occupant = self.slots[slot].expect("BFS only visits occupied slots");
            for w in 0..ways {
                let alt = hash_slot(w, occupant.line, spw);
                if alt == slot {
                    continue;
                }
                if self.slots[alt].is_none() {
                    // Found a path: shift entries from `slot` into `alt`,
                    // walking parents back to a start slot.
                    let kicks = self.scratch.depth[slot];
                    self.slots[alt] = self.slots[slot];
                    let mut cur = slot;
                    while self.scratch.parent[cur] != u32::MAX {
                        let p = self.scratch.parent[cur] as usize;
                        self.slots[cur] = self.slots[p];
                        cur = p;
                    }
                    self.slots[cur] = Some(entry);
                    self.note_insert();
                    return InsertOutcome::Placed { kicks };
                }
                if !self.scratch.visited(alt) && (self.scratch.depth[slot] as usize) < max_kicks {
                    let d = self.scratch.depth[slot] + 1;
                    self.scratch.visit(alt, d, slot as u32);
                    self.scratch.queue.push(alt as u32);
                }
            }
        }
        InsertOutcome::Failed
    }

    /// Iterates over the live entries in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &MshrEntry> {
        self.slots.iter().flatten()
    }

    /// Verifies structural consistency: the occupancy counter matches the
    /// live entry count, no line has two entries, and (in cuckoo mode)
    /// every entry sits in one of its d candidate slots.
    ///
    /// # Panics
    ///
    /// Panics on any violation; used by the `invariants` feature.
    pub fn check_consistency(&self) {
        let live = self.slots.iter().flatten().count();
        assert_eq!(
            live, self.occupancy,
            "cuckoo occupancy counter drifted from live entry count"
        );
        let mut seen = std::collections::HashSet::new();
        for (idx, slot) in self.slots.iter().enumerate() {
            let Some(e) = slot else { continue };
            assert!(seen.insert(e.line), "duplicate MSHR for line {}", e.line);
            if self.ways > 0 {
                assert!(
                    (0..self.ways).any(|w| self.hash(w, e.line) == idx),
                    "MSHR for line {} stored in slot {idx}, unreachable by its hashes",
                    e.line
                );
            }
        }
    }

    fn note_insert(&mut self) {
        self.occupancy += 1;
        self.peak_occupancy = self.peak_occupancy.max(self.occupancy);
    }

    /// Removes and returns the entry for `line`.
    pub fn remove(&mut self, line: u64) -> Option<MshrEntry> {
        if self.ways == 0 {
            for slot in self.slots.iter_mut() {
                if matches!(slot, Some(e) if e.line == line) {
                    self.occupancy -= 1;
                    return slot.take();
                }
            }
            return None;
        }
        for w in 0..self.ways {
            let idx = self.hash(w, line);
            if matches!(&self.slots[idx], Some(e) if e.line == line) {
                self.occupancy -= 1;
                return self.slots[idx].take();
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(line: u64) -> MshrEntry {
        MshrEntry {
            line,
            head_row: 0,
            tail_row: 0,
            pending: 1,
        }
    }

    #[test]
    fn insert_lookup_remove_round_trip() {
        let mut t = CuckooMshr::new(64, 4, 8);
        for l in 0..20u64 {
            assert!(matches!(
                t.insert(entry(l * 97)),
                InsertOutcome::Placed { .. }
            ));
        }
        assert_eq!(t.occupancy(), 20);
        for l in 0..20u64 {
            assert!(t.lookup(l * 97).is_some());
        }
        assert!(t.lookup(5).is_none());
        for l in 0..20u64 {
            assert!(t.remove(l * 97).is_some());
        }
        assert_eq!(t.occupancy(), 0);
        assert_eq!(t.peak_occupancy(), 20);
    }

    #[test]
    fn find_then_at_mut_updates_entry() {
        for ways in [4, 0] {
            let mut t = CuckooMshr::new(16, ways, 4);
            t.insert(entry(7));
            assert_eq!(t.find(8), None);
            let slot = t.find(7).unwrap();
            t.at_mut(slot).pending = 42;
            assert_eq!(t.lookup(7).unwrap().pending, 42);
        }
    }

    #[test]
    fn cuckoo_reaches_high_load_factor() {
        // 4-way cuckoo should comfortably fill well past 80%.
        let cap = 1024;
        let mut t = CuckooMshr::new(cap, 4, 16);
        let mut inserted = 0;
        for l in 0..cap as u64 {
            match t.insert(entry(l.wrapping_mul(0x5851_F42D_4C95_7F2D))) {
                InsertOutcome::Placed { .. } => inserted += 1,
                InsertOutcome::Failed => break,
            }
        }
        assert!(
            inserted as f64 > 0.8 * cap as f64,
            "load factor too low: {inserted}/{cap}"
        );
    }

    #[test]
    fn failed_insert_leaves_table_consistent() {
        let mut t = CuckooMshr::new(8, 4, 2);
        let mut lines = vec![];
        // Fill until failure.
        for l in 0..1000u64 {
            match t.insert(entry(l)) {
                InsertOutcome::Placed { .. } => lines.push(l),
                InsertOutcome::Failed => break,
            }
        }
        // Every placed line is still findable after the failure.
        for &l in &lines {
            assert!(t.lookup(l).is_some(), "lost line {l}");
        }
        assert_eq!(t.occupancy(), lines.len());
    }

    #[test]
    fn fully_associative_mode() {
        let mut t = CuckooMshr::new(4, 0, 0);
        for l in [100u64, 200, 300, 400] {
            assert!(matches!(
                t.insert(entry(l)),
                InsertOutcome::Placed { kicks: 0 }
            ));
        }
        assert!(t.is_full());
        assert!(matches!(t.insert(entry(500)), InsertOutcome::Failed));
        assert!(t.lookup(300).is_some());
        t.remove(300);
        assert!(matches!(t.insert(entry(500)), InsertOutcome::Placed { .. }));
    }

    #[test]
    fn kicks_are_reported() {
        // Force collisions by filling a tiny table.
        let mut t = CuckooMshr::new(8, 2, 8);
        let mut total_kicks = 0;
        for l in 0..8u64 {
            if let InsertOutcome::Placed { kicks } = t.insert(entry(l)) {
                total_kicks += kicks;
            }
        }
        // With a 2-way table at high load some displacement must happen.
        assert!(total_kicks > 0 || t.occupancy() < 8);
    }
}

//! The subentry buffer: per-miss metadata in linked rows.
//!
//! Every pending miss stores a *subentry* — the request ID and the word
//! offset within the line — in a row belonging to its MSHR. Rows hold a
//! fixed number of slots; in MOMS mode a full row links to a freshly
//! allocated row (costing one pipeline cycle), while in traditional mode a
//! full row stalls the input until the miss drains.

/// One pending miss: request ID plus the 32-bit-word offset within the
/// cache line (0..16 for 64 B lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subentry {
    /// Issuer-chosen identifier (thread id / destination offset).
    pub id: u32,
    /// Word offset of the requested value within the line.
    pub word: u8,
}

/// Sentinel row index meaning "no next row".
pub const NO_ROW: u32 = u32::MAX;

/// Per-row header: live slots in the row and the next row of its chain.
#[derive(Debug, Clone, Copy)]
struct RowHeader {
    len: u32,
    next: u32,
}

const EMPTY_ROW: RowHeader = RowHeader {
    len: 0,
    next: NO_ROW,
};

/// A pool of subentry rows with a free list, as stored in URAM (§V-B).
///
/// Like the hardware array, the pool is one flat slot array of fixed-size
/// rows: row `r` owns slots `r * slots_per_row ..` and a header with its
/// fill count and chain link. All storage is allocated and written at
/// construction, so the simulation loop never allocates or faults in
/// fresh pages.
///
/// # Example
///
/// ```
/// use std::collections::VecDeque;
/// use moms::subentry::{Subentry, SubentryBuffer};
///
/// let mut buf = SubentryBuffer::new(16, 4, true);
/// let head = buf.alloc_row().unwrap();
/// let mut tail = head;
/// for i in 0..6 {
///     tail = buf.append(tail, Subentry { id: i, word: 0 }).unwrap();
/// }
/// let mut drained = VecDeque::new();
/// assert_eq!(buf.drain_chain_into(head, 7, &mut drained), 6);
/// assert_eq!(drained[5], (7, Subentry { id: 5, word: 0 }));
/// ```
#[derive(Debug, Clone)]
pub struct SubentryBuffer {
    /// `rows.len() * slots_per_row` slots, row-major.
    slots: Vec<Subentry>,
    rows: Vec<RowHeader>,
    free: Vec<u32>,
    slots_per_row: usize,
    used_entries: usize,
    peak_entries: usize,
    chain_rows: bool,
}

/// Error returned when the buffer has no free row or (in traditional mode)
/// the row is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubentryFull;

impl std::fmt::Display for SubentryFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "subentry buffer full")
    }
}

impl std::error::Error for SubentryFull {}

impl SubentryBuffer {
    /// Creates a buffer holding `total_entries` subentries in rows of
    /// `slots_per_row`; `chain_rows` selects MOMS (true) or traditional
    /// (false) overflow behaviour.
    ///
    /// # Panics
    ///
    /// Panics if `slots_per_row` is zero or exceeds `total_entries`.
    pub fn new(total_entries: usize, slots_per_row: usize, chain_rows: bool) -> Self {
        assert!(slots_per_row > 0, "rows must hold at least one entry");
        assert!(total_entries >= slots_per_row, "buffer smaller than a row");
        let num_rows = total_entries / slots_per_row;
        SubentryBuffer {
            slots: vec![Subentry { id: 0, word: 0 }; num_rows * slots_per_row],
            rows: vec![EMPTY_ROW; num_rows],
            free: (0..num_rows as u32).rev().collect(),
            slots_per_row,
            used_entries: 0,
            peak_entries: 0,
            chain_rows,
        }
    }

    /// Number of rows not currently allocated.
    pub fn free_rows(&self) -> usize {
        self.free.len()
    }

    /// Live subentries across all rows.
    pub fn used_entries(&self) -> usize {
        self.used_entries
    }

    /// Highest number of simultaneously live subentries observed.
    pub fn peak_entries(&self) -> usize {
        self.peak_entries
    }

    /// Allocates an empty row, returning its index.
    ///
    /// # Errors
    ///
    /// Returns [`SubentryFull`] when no row is free.
    pub fn alloc_row(&mut self) -> Result<u32, SubentryFull> {
        let idx = self.free.pop().ok_or(SubentryFull)?;
        debug_assert_eq!(self.rows[idx as usize].len, 0);
        self.rows[idx as usize].next = NO_ROW;
        Ok(idx)
    }

    /// Writes `e` into the next slot of row `row`, which has room.
    fn push(&mut self, row: u32, e: Subentry) {
        let h = &mut self.rows[row as usize];
        self.slots[row as usize * self.slots_per_row + h.len as usize] = e;
        h.len += 1;
        self.used_entries += 1;
        self.peak_entries = self.peak_entries.max(self.used_entries);
    }

    /// Appends `e` to the chain whose *tail* row is `tail`, returning the
    /// (possibly new) tail row index.
    ///
    /// # Errors
    ///
    /// Returns [`SubentryFull`] when the tail row is full and either
    /// chaining is disabled or no free row remains. The buffer is
    /// unchanged in that case.
    ///
    /// # Panics
    ///
    /// Panics if `tail` is not a valid allocated row.
    pub fn append(&mut self, tail: u32, e: Subentry) -> Result<u32, SubentryFull> {
        if (self.rows[tail as usize].len as usize) < self.slots_per_row {
            self.push(tail, e);
            return Ok(tail);
        }
        if !self.chain_rows {
            return Err(SubentryFull);
        }
        let new_tail = self.alloc_row()?;
        self.rows[tail as usize].next = new_tail;
        self.push(new_tail, e);
        Ok(new_tail)
    }

    /// Returns a row allocated with [`alloc_row`](Self::alloc_row) that was
    /// never written (used when a failed MSHR insertion abandons its row).
    ///
    /// # Panics
    ///
    /// Panics if the row holds entries.
    pub fn release_empty_row(&mut self, row: u32) {
        assert!(self.rows[row as usize].len == 0, "row {row} is not empty");
        self.rows[row as usize].next = NO_ROW;
        self.free.push(row);
    }

    /// Drains the whole chain starting at `head` into a caller-owned
    /// queue, each subentry tagged with `line`, in append order — the
    /// bank's replay path reuses one queue across the whole run. Rows free
    /// and the live-entry count drops immediately. Returns the number of
    /// drained entries.
    ///
    /// # Panics
    ///
    /// Panics if `head` is not a valid allocated row.
    pub fn drain_chain_into(
        &mut self,
        head: u32,
        line: u64,
        out: &mut std::collections::VecDeque<(u64, Subentry)>,
    ) -> usize {
        let mut n = 0;
        let mut cur = head;
        while cur != NO_ROW {
            let RowHeader { len, next } =
                std::mem::replace(&mut self.rows[cur as usize], EMPTY_ROW);
            let base = cur as usize * self.slots_per_row;
            out.extend(
                self.slots[base..base + len as usize]
                    .iter()
                    .map(|&e| (line, e)),
            );
            n += len as usize;
            self.free.push(cur);
            cur = next;
        }
        self.used_entries -= n;
        n
    }

    /// Number of subentries in the chain starting at `head` (O(rows)).
    pub fn chain_len(&self, head: u32) -> usize {
        let mut n = 0;
        let mut cur = head;
        while cur != NO_ROW {
            n += self.rows[cur as usize].len as usize;
            cur = self.rows[cur as usize].next;
        }
        n
    }

    /// Number of rows in the chain starting at `head` (O(rows)).
    pub fn chain_row_count(&self, head: u32) -> usize {
        let mut n = 0;
        let mut cur = head;
        while cur != NO_ROW {
            n += 1;
            cur = self.rows[cur as usize].next;
        }
        n
    }

    /// Total rows in the pool (free plus allocated).
    pub fn total_rows(&self) -> usize {
        self.rows.len()
    }

    /// Verifies structural consistency: the live-entry counter matches the
    /// per-row sums, no row overfills, the free list holds only empty,
    /// distinct rows, and no free row links anywhere.
    ///
    /// # Panics
    ///
    /// Panics on any violation; used by the `invariants` feature.
    pub fn check_consistency(&self) {
        let total: usize = self.rows.iter().map(|r| r.len as usize).sum();
        assert_eq!(
            total, self.used_entries,
            "subentry used_entries counter drifted from per-row sums"
        );
        for (idx, row) in self.rows.iter().enumerate() {
            assert!(
                row.len as usize <= self.slots_per_row,
                "row {idx} holds {} entries in {} slots",
                row.len,
                self.slots_per_row
            );
        }
        let mut seen = std::collections::HashSet::new();
        for &idx in &self.free {
            assert!(seen.insert(idx), "row {idx} on the free list twice");
            let row = &self.rows[idx as usize];
            assert!(row.len == 0, "free row {idx} holds entries");
            assert_eq!(row.next, NO_ROW, "free row {idx} links to another row");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Drains the chain at `head` and returns its subentries in order.
    fn drain(buf: &mut SubentryBuffer, head: u32) -> Vec<Subentry> {
        let mut out = VecDeque::new();
        let n = buf.drain_chain_into(head, 0, &mut out);
        assert_eq!(n, out.len());
        out.into_iter().map(|(_, e)| e).collect()
    }

    #[test]
    fn append_and_drain_preserves_order() {
        let mut buf = SubentryBuffer::new(64, 4, true);
        let head = buf.alloc_row().unwrap();
        let mut tail = head;
        for i in 0..10u32 {
            tail = buf
                .append(
                    tail,
                    Subentry {
                        id: i,
                        word: (i % 16) as u8,
                    },
                )
                .unwrap();
        }
        assert_eq!(buf.used_entries(), 10);
        assert_eq!(buf.chain_len(head), 10);
        let drained = drain(&mut buf, head);
        assert_eq!(
            drained.iter().map(|s| s.id).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        assert_eq!(buf.used_entries(), 0);
        // All rows returned to the free list.
        assert_eq!(buf.free_rows(), 16);
    }

    #[test]
    fn chaining_allocates_rows() {
        let mut buf = SubentryBuffer::new(12, 4, true);
        let head = buf.alloc_row().unwrap();
        assert_eq!(buf.free_rows(), 2);
        let mut tail = head;
        for i in 0..5u32 {
            tail = buf.append(tail, Subentry { id: i, word: 0 }).unwrap();
        }
        assert_ne!(tail, head, "fifth entry should land in a chained row");
        assert_eq!(buf.free_rows(), 1);
    }

    #[test]
    fn traditional_mode_rejects_overflow() {
        let mut buf = SubentryBuffer::new(16, 8, false);
        let head = buf.alloc_row().unwrap();
        let mut tail = head;
        for i in 0..8u32 {
            tail = buf.append(tail, Subentry { id: i, word: 0 }).unwrap();
        }
        assert_eq!(tail, head);
        assert_eq!(
            buf.append(tail, Subentry { id: 9, word: 0 }),
            Err(SubentryFull)
        );
        // Drain then reuse.
        assert_eq!(drain(&mut buf, head).len(), 8);
    }

    #[test]
    fn exhaustion_reports_full() {
        let mut buf = SubentryBuffer::new(8, 4, true);
        let a = buf.alloc_row().unwrap();
        let _b = buf.alloc_row().unwrap();
        assert_eq!(buf.alloc_row(), Err(SubentryFull));
        // Fill row a, then overflow must fail (no free rows to chain).
        let mut tail = a;
        for i in 0..4u32 {
            tail = buf.append(tail, Subentry { id: i, word: 0 }).unwrap();
        }
        assert_eq!(
            buf.append(tail, Subentry { id: 4, word: 0 }),
            Err(SubentryFull)
        );
    }

    #[test]
    fn peak_tracking() {
        let mut buf = SubentryBuffer::new(32, 4, true);
        let head = buf.alloc_row().unwrap();
        let mut tail = head;
        for i in 0..7u32 {
            tail = buf.append(tail, Subentry { id: i, word: 0 }).unwrap();
        }
        drain(&mut buf, head);
        assert_eq!(buf.used_entries(), 0);
        assert_eq!(buf.peak_entries(), 7);
    }

    /// Reference pool with one heap `Vec` per row — the straightforward
    /// layout the flat pool must be indistinguishable from.
    struct ModelPool {
        rows: Vec<(Vec<Subentry>, u32)>,
        free: Vec<u32>,
        slots_per_row: usize,
        chain_rows: bool,
        used: usize,
        peak: usize,
    }

    impl ModelPool {
        fn new(total: usize, slots_per_row: usize, chain_rows: bool) -> Self {
            let n = total / slots_per_row;
            ModelPool {
                rows: vec![(Vec::new(), NO_ROW); n],
                free: (0..n as u32).rev().collect(),
                slots_per_row,
                chain_rows,
                used: 0,
                peak: 0,
            }
        }

        fn alloc_row(&mut self) -> Result<u32, SubentryFull> {
            let idx = self.free.pop().ok_or(SubentryFull)?;
            self.rows[idx as usize].1 = NO_ROW;
            Ok(idx)
        }

        fn push(&mut self, row: u32, e: Subentry) {
            self.rows[row as usize].0.push(e);
            self.used += 1;
            self.peak = self.peak.max(self.used);
        }

        fn append(&mut self, tail: u32, e: Subentry) -> Result<u32, SubentryFull> {
            if self.rows[tail as usize].0.len() < self.slots_per_row {
                self.push(tail, e);
                return Ok(tail);
            }
            if !self.chain_rows {
                return Err(SubentryFull);
            }
            let new_tail = self.alloc_row()?;
            self.rows[tail as usize].1 = new_tail;
            self.push(new_tail, e);
            Ok(new_tail)
        }

        fn release_empty_row(&mut self, row: u32) {
            assert!(self.rows[row as usize].0.is_empty());
            self.rows[row as usize].1 = NO_ROW;
            self.free.push(row);
        }

        fn drain(&mut self, head: u32, line: u64) -> Vec<(u64, Subentry)> {
            let mut out = Vec::new();
            let mut cur = head;
            while cur != NO_ROW {
                let row = &mut self.rows[cur as usize];
                out.extend(row.0.drain(..).map(|e| (line, e)));
                let next = std::mem::replace(&mut row.1, NO_ROW);
                self.free.push(cur);
                cur = next;
            }
            self.used -= out.len();
            out
        }
    }

    #[test]
    fn flat_pool_matches_vec_of_rows_model() {
        let mut full_errors = [0u32; 2];
        for chain_rows in [true, false] {
            for seed in 0..24u64 {
                let mut rng = simkit::SplitMix64::new(seed);
                let slots_per_row = 1 + rng.next_below(6) as usize;
                let total = slots_per_row * (1 + rng.next_below(10) as usize);
                let mut pool = SubentryBuffer::new(total, slots_per_row, chain_rows);
                let mut model = ModelPool::new(total, slots_per_row, chain_rows);
                // Live chains as (head, tail, line).
                let mut chains: Vec<(u32, u32, u64)> = Vec::new();
                let mut next_id = 0u32;
                for step in 0..3_000 {
                    match rng.next_below(10) {
                        0..=1 => {
                            let got = pool.alloc_row();
                            assert_eq!(got, model.alloc_row(), "seed {seed} step {step}");
                            match got {
                                Ok(row) => chains.push((row, row, rng.next_below(1 << 20))),
                                Err(SubentryFull) => full_errors[chain_rows as usize] += 1,
                            }
                        }
                        2..=6 if !chains.is_empty() => {
                            let c = rng.next_below(chains.len() as u64) as usize;
                            let e = Subentry {
                                id: next_id,
                                word: rng.next_below(16) as u8,
                            };
                            next_id += 1;
                            let got = pool.append(chains[c].1, e);
                            assert_eq!(
                                got,
                                model.append(chains[c].1, e),
                                "seed {seed} step {step}"
                            );
                            match got {
                                Ok(tail) => chains[c].1 = tail,
                                Err(SubentryFull) => full_errors[chain_rows as usize] += 1,
                            }
                        }
                        7..=8 if !chains.is_empty() => {
                            let c = rng.next_below(chains.len() as u64) as usize;
                            let (head, _, line) = chains.swap_remove(c);
                            let mut got = VecDeque::new();
                            let n = pool.drain_chain_into(head, line, &mut got);
                            let want = model.drain(head, line);
                            assert_eq!(n, want.len());
                            assert_eq!(got.into_iter().collect::<Vec<_>>(), want);
                        }
                        9 => {
                            if let Some(c) = chains
                                .iter()
                                .position(|&(h, t, _)| h == t && pool.chain_len(h) == 0)
                            {
                                let (row, _, _) = chains.swap_remove(c);
                                pool.release_empty_row(row);
                                model.release_empty_row(row);
                            }
                        }
                        _ => {}
                    }
                    assert_eq!(pool.free_rows(), model.free.len());
                    assert_eq!(pool.used_entries(), model.used);
                    assert_eq!(pool.peak_entries(), model.peak);
                    pool.check_consistency();
                }
            }
        }
        assert!(
            full_errors.iter().all(|&n| n > 0),
            "both modes must reach SubentryFull: {full_errors:?}"
        );
    }
}

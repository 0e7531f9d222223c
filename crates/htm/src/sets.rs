//! Read- and write-set bookkeeping for transactions.
//!
//! Both sets are sized by the runtime's capacity configuration; exceeding
//! them is a *capacity abort*, the mechanism that (as in the paper) makes
//! long-running operations like range queries fail in hardware and fall
//! back to software paths.

/// Outcome of recording a line in the read set.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub(crate) enum ReadRecord {
    /// First time this line is read.
    New,
    /// Line already present with the same observed version.
    Seen,
    /// Line already present with a *different* version: the line changed
    /// mid-transaction, so the earlier read is stale.
    VersionChanged,
    /// Too many distinct lines: capacity exceeded.
    Capacity,
}

/// Open-addressed set of `(line, version)` pairs with O(1) stamped reset.
pub(crate) struct ReadSet {
    /// `(stamp, entry_index + 1)` per slot; a slot is live iff its stamp
    /// matches `stamp`.
    table: Box<[(u32, u32)]>,
    mask: usize,
    stamp: u32,
    entries: Vec<(u32, u64)>,
    capacity: usize,
}

impl ReadSet {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let slots = (capacity.max(8) * 2).next_power_of_two();
        ReadSet {
            table: vec![(0, 0); slots].into_boxed_slice(),
            mask: slots - 1,
            stamp: 1,
            entries: Vec::with_capacity(capacity.min(1 << 16)),
            capacity,
        }
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Stamp wrapped: physically reset so stale stamps cannot alias.
            self.table.fill((0, 0));
            self.stamp = 1;
        }
    }

    #[inline]
    fn slot_of(&self, line: u32) -> usize {
        // Fibonacci hashing spreads consecutive line indices.
        ((line as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & self.mask
    }

    pub(crate) fn record(&mut self, line: u32, version: u64) -> ReadRecord {
        let mut slot = self.slot_of(line);
        loop {
            let (stamp, idx1) = self.table[slot];
            if stamp != self.stamp || idx1 == 0 {
                // Empty slot: insert.
                if self.entries.len() >= self.capacity {
                    return ReadRecord::Capacity;
                }
                self.entries.push((line, version));
                self.table[slot] = (self.stamp, self.entries.len() as u32);
                return ReadRecord::New;
            }
            let (l, v) = self.entries[idx1 as usize - 1];
            if l == line {
                return if v == version {
                    ReadRecord::Seen
                } else {
                    ReadRecord::VersionChanged
                };
            }
            slot = (slot + 1) & self.mask;
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.entries.iter().copied()
    }
}

/// Growable open-addressed index over a backing `Vec` of entries, with
/// the same `(stamp, entry_index + 1)` slot encoding and O(1) stamped
/// reset as [`ReadSet`]'s table. Starts tiny and doubles as the backing
/// vector grows, so idle transactions cost nothing while a coalesced
/// batch plan's hundreds of buffered writes still probe in O(1) — the
/// linear-scan write set this replaces made every read-own-writes lookup
/// O(buffered writes), turning large batch bodies quadratic.
struct StampedIndex {
    table: Box<[(u32, u32)]>,
    mask: usize,
    stamp: u32,
}

#[inline]
fn fib_hash(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl StampedIndex {
    fn new(slots: usize) -> Self {
        let slots = slots.next_power_of_two();
        StampedIndex {
            table: vec![(0, 0); slots].into_boxed_slice(),
            mask: slots - 1,
            stamp: 1,
        }
    }

    fn clear(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.table.fill((0, 0));
            self.stamp = 1;
        }
    }

    /// Probes for the entry whose key matches (per `key_eq`, given an
    /// entry index into the backing vector). `Ok(entry_index)` when
    /// found, `Err(slot)` at the first empty slot otherwise — pass that
    /// slot to [`Self::set`] to insert.
    #[inline]
    fn probe(&self, hash: u64, mut key_eq: impl FnMut(usize) -> bool) -> Result<usize, usize> {
        // Fibonacci hashing: take the mixed top bits for the home slot.
        let mut slot = (hash >> 32) as usize & self.mask;
        loop {
            let (stamp, idx1) = self.table[slot];
            if stamp != self.stamp || idx1 == 0 {
                return Err(slot);
            }
            let i = idx1 as usize - 1;
            if key_eq(i) {
                return Ok(i);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    #[inline]
    fn set(&mut self, slot: usize, idx1: usize) {
        self.table[slot] = (self.stamp, idx1 as u32);
    }

    /// Doubles and re-indexes once the backing vector fills half the
    /// table (keeps probe chains short).
    fn maybe_grow(&mut self, len: usize, mut hash_of: impl FnMut(usize) -> u64) {
        if len * 2 < self.table.len() {
            return;
        }
        *self = StampedIndex::new(self.table.len() * 2);
        for i in 0..len {
            let slot = self.probe(hash_of(i), |_| false).unwrap_err();
            self.set(slot, i + 1);
        }
    }
}

/// Buffered (lazy-versioning) write set: latest value per cell address plus
/// the set of distinct lines touched. Both lookups are O(1) via
/// [`StampedIndex`] — batch plans buffer hundreds of writes and re-read
/// them, so linear scans here dominate whole-transaction cost.
pub(crate) struct WriteSet {
    entries: Vec<(usize, u64)>,
    addr_index: StampedIndex,
    lines: Vec<u32>,
    line_index: StampedIndex,
    capacity_lines: usize,
}

impl WriteSet {
    pub(crate) fn with_capacity(capacity_lines: usize) -> Self {
        WriteSet {
            entries: Vec::with_capacity(64),
            addr_index: StampedIndex::new(128),
            lines: Vec::with_capacity(capacity_lines.min(1 << 12)),
            line_index: StampedIndex::new(64),
            capacity_lines,
        }
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.addr_index.clear();
        self.lines.clear();
        self.line_index.clear();
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records a buffered write. Returns `false` on capacity overflow.
    pub(crate) fn insert(&mut self, addr: usize, line: u32, val: u64) -> bool {
        // Latest-value-wins for repeated writes to one cell.
        let entries = &mut self.entries;
        match self
            .addr_index
            .probe(fib_hash(addr as u64), |i| entries[i].0 == addr)
        {
            Ok(i) => {
                entries[i].1 = val;
                return true;
            }
            Err(slot) => {
                let lines = &mut self.lines;
                if let Err(lslot) = self
                    .line_index
                    .probe(fib_hash(line as u64), |i| lines[i] == line)
                {
                    if lines.len() >= self.capacity_lines {
                        return false;
                    }
                    lines.push(line);
                    self.line_index.set(lslot, lines.len());
                    let lines = &self.lines;
                    self.line_index
                        .maybe_grow(lines.len(), |i| fib_hash(lines[i] as u64));
                }
                entries.push((addr, val));
                self.addr_index.set(slot, entries.len());
                let entries = &self.entries;
                self.addr_index
                    .maybe_grow(entries.len(), |i| fib_hash(entries[i].0 as u64));
            }
        }
        true
    }

    /// Read-own-writes lookup. Skips the probe while nothing is buffered,
    /// as in every search read before a transaction's first write.
    pub(crate) fn get(&self, addr: usize) -> Option<u64> {
        if self.entries.is_empty() {
            return None;
        }
        self.addr_index
            .probe(fib_hash(addr as u64), |i| self.entries[i].0 == addr)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Whether some buffered write lies on line `line` (one probe).
    pub(crate) fn touches_line(&self, line: u32) -> bool {
        !self.lines.is_empty()
            && self
                .line_index
                .probe(fib_hash(line as u64), |i| self.lines[i] == line)
                .is_ok()
    }

    pub(crate) fn entries(&self) -> &[(usize, u64)] {
        &self.entries
    }

    /// Distinct lines, sorted (commit locks them in this order to avoid
    /// deadlock against concurrent commits).
    pub(crate) fn sorted_lines(&self, buf: &mut Vec<u32>) {
        buf.clear();
        buf.extend_from_slice(&self.lines);
        buf.sort_unstable();
    }

    pub(crate) fn line_count(&self) -> usize {
        self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_set_record_outcomes() {
        let mut rs = ReadSet::with_capacity(4);
        assert_eq!(rs.record(10, 100), ReadRecord::New);
        assert_eq!(rs.record(10, 100), ReadRecord::Seen);
        assert_eq!(rs.record(10, 102), ReadRecord::VersionChanged);
        assert_eq!(rs.record(11, 0), ReadRecord::New);
        assert_eq!(rs.record(12, 0), ReadRecord::New);
        assert_eq!(rs.record(13, 0), ReadRecord::New);
        assert_eq!(rs.record(14, 0), ReadRecord::Capacity);
        assert_eq!(rs.len(), 4);
    }

    #[test]
    fn read_set_clear_is_logical() {
        let mut rs = ReadSet::with_capacity(8);
        assert_eq!(rs.record(3, 7), ReadRecord::New);
        rs.clear();
        assert_eq!(rs.len(), 0);
        // Previously recorded entry must be gone.
        assert_eq!(rs.record(3, 9), ReadRecord::New);
    }

    #[test]
    fn read_set_survives_stamp_wraparound() {
        let mut rs = ReadSet::with_capacity(2);
        rs.stamp = u32::MAX - 1;
        assert_eq!(rs.record(5, 1), ReadRecord::New);
        rs.clear(); // stamp -> MAX
        assert_eq!(rs.record(5, 2), ReadRecord::New);
        rs.clear(); // stamp wraps -> table reset
        assert_eq!(rs.record(5, 3), ReadRecord::New);
        assert_eq!(rs.record(5, 3), ReadRecord::Seen);
    }

    #[test]
    fn read_set_iterates_all() {
        let mut rs = ReadSet::with_capacity(16);
        for i in 0..10u32 {
            rs.record(i, i as u64 * 2);
        }
        let mut got: Vec<_> = rs.iter().collect();
        got.sort();
        assert_eq!(got.len(), 10);
        assert_eq!(got[3], (3, 6));
    }

    #[test]
    fn write_set_read_own_writes() {
        let mut ws = WriteSet::with_capacity(4);
        assert!(ws.insert(0x1000, 1, 5));
        assert!(ws.insert(0x1008, 1, 6));
        assert!(ws.insert(0x1000, 1, 7)); // overwrite
        assert_eq!(ws.get(0x1000), Some(7));
        assert_eq!(ws.get(0x1008), Some(6));
        assert_eq!(ws.get(0x2000), None);
        assert_eq!(ws.entries().len(), 2);
        assert_eq!(ws.line_count(), 1);
    }

    #[test]
    fn write_set_touches_written_lines_only() {
        let mut ws = WriteSet::with_capacity(4);
        assert!(!ws.touches_line(1));
        assert!(ws.insert(0x1000, 1, 5));
        assert!(ws.touches_line(1));
        assert!(!ws.touches_line(2));
        ws.clear();
        assert!(!ws.touches_line(1));
    }

    #[test]
    fn write_set_capacity_on_distinct_lines() {
        let mut ws = WriteSet::with_capacity(2);
        assert!(ws.insert(0x10, 1, 0));
        assert!(ws.insert(0x20, 2, 0));
        assert!(!ws.insert(0x30, 3, 0)); // third line: overflow
        assert!(ws.insert(0x18, 1, 0)); // existing line: fine
    }

    #[test]
    fn write_set_survives_index_growth() {
        let mut ws = WriteSet::with_capacity(1 << 12);
        // Push well past the initial 128-slot addr index so both indexes
        // rehash, then verify every buffered value still resolves.
        for i in 0..1000usize {
            assert!(ws.insert(i * 8, (i / 8) as u32, i as u64));
        }
        for i in 0..1000usize {
            assert_eq!(ws.get(i * 8), Some(i as u64));
        }
        assert_eq!(ws.entries().len(), 1000);
        ws.clear();
        assert_eq!(ws.get(0), None);
        assert!(ws.insert(0, 0, 7));
        assert_eq!(ws.get(0), Some(7));
    }

    #[test]
    fn write_set_sorted_lines() {
        let mut ws = WriteSet::with_capacity(8);
        ws.insert(0x30, 9, 0);
        ws.insert(0x10, 2, 0);
        ws.insert(0x20, 5, 0);
        let mut buf = Vec::new();
        ws.sorted_lines(&mut buf);
        assert_eq!(buf, vec![2, 5, 9]);
    }
}

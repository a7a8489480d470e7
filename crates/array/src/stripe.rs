//! Logical-volume-to-member address mapping.

/// How the array lays data over its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Redundancy {
    /// Plain RAID-0: every chunk lives on exactly one member.
    None,
    /// RAID-10: members pair up; each chunk lives on both devices of its
    /// pair at the same member address. Writes fan out to both replicas;
    /// reads pick either — the opening for GC-aware routing.
    Mirror,
}

impl Redundancy {
    /// Short display name, used in reports. The CLI has no spelling for
    /// it: `--mirror` selects [`Redundancy::Mirror`].
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Redundancy::None => "raid0",
            Redundancy::Mirror => "mirror",
        }
    }
}

/// One member's share of a striped request: a contiguous member-LPN
/// extent on one *column* (data role). Under [`Redundancy::Mirror`] a
/// column is a device pair; otherwise a column is a single device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeExtent {
    /// Data column the extent belongs to.
    pub column: usize,
    /// First member LPN of the extent.
    pub member_lpn: u64,
    /// Extent length in pages.
    pub pages: u32,
}

/// RAID-0 striping of a logical page space over N members (optionally
/// mirrored pairs), in chunks of a configurable page count.
///
/// The map is a bijection between the logical volume and the union of the
/// member address spaces (per data role): chunk `s = lpn / chunk` lands
/// on column `s % columns` at member LPN
/// `(s / columns) * chunk + lpn % chunk`. Because columns rotate
/// round-robin, any *contiguous* logical extent maps to at most one
/// *contiguous* member extent per column — which is what lets
/// [`split`](StripeMap::split) emit one sub-request per touched member.
///
/// # Example
///
/// ```
/// use jitgc_array::{Redundancy, StripeMap};
///
/// let map = StripeMap::new(4, 16, Redundancy::None);
/// let (column, member_lpn) = map.locate(16);
/// assert_eq!((column, member_lpn), (1, 0));
/// assert_eq!(map.global(column, member_lpn), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeMap {
    members: usize,
    chunk_pages: u64,
    redundancy: Redundancy,
}

impl StripeMap {
    /// Creates a stripe map over `members` devices with `chunk_pages`
    /// pages per chunk.
    ///
    /// # Panics
    ///
    /// Panics if `members` or `chunk_pages` is zero, or if
    /// [`Redundancy::Mirror`] is requested with an odd or sub-2 member
    /// count (mirroring pairs devices).
    #[must_use]
    pub fn new(members: usize, chunk_pages: u64, redundancy: Redundancy) -> Self {
        assert!(members > 0, "array needs at least one member");
        assert!(chunk_pages > 0, "chunk must cover at least one page");
        if redundancy == Redundancy::Mirror {
            assert!(
                members >= 2 && members.is_multiple_of(2),
                "mirroring pairs devices: member count {members} must be even"
            );
        }
        StripeMap {
            members,
            chunk_pages,
            redundancy,
        }
    }

    /// Number of physical member devices.
    #[must_use]
    pub fn members(&self) -> usize {
        self.members
    }

    /// Chunk size in pages.
    #[must_use]
    pub fn chunk_pages(&self) -> u64 {
        self.chunk_pages
    }

    /// The redundancy scheme.
    #[must_use]
    pub fn redundancy(&self) -> Redundancy {
        self.redundancy
    }

    /// Number of data columns — the divisor of the volume's capacity.
    /// Equals the member count for RAID-0, half of it for mirrored pairs.
    #[must_use]
    pub fn columns(&self) -> usize {
        match self.redundancy {
            Redundancy::None => self.members,
            Redundancy::Mirror => self.members / 2,
        }
    }

    /// The physical devices storing a column: the primary and, when
    /// mirrored, its replica.
    #[must_use]
    pub fn devices_of(&self, column: usize) -> (usize, Option<usize>) {
        assert!(column < self.columns(), "column {column} out of range");
        match self.redundancy {
            Redundancy::None => (column, None),
            Redundancy::Mirror => (2 * column, Some(2 * column + 1)),
        }
    }

    /// Maps a logical page to `(column, member_lpn)`.
    #[must_use]
    pub fn locate(&self, lpn: u64) -> (usize, u64) {
        let columns = self.columns() as u64;
        let stripe = lpn / self.chunk_pages;
        (
            (stripe % columns) as usize,
            (stripe / columns) * self.chunk_pages + lpn % self.chunk_pages,
        )
    }

    /// The inverse of [`locate`](StripeMap::locate).
    #[must_use]
    pub fn global(&self, column: usize, member_lpn: u64) -> u64 {
        assert!(column < self.columns(), "column {column} out of range");
        let columns = self.columns() as u64;
        ((member_lpn / self.chunk_pages) * columns + column as u64) * self.chunk_pages
            + member_lpn % self.chunk_pages
    }

    /// The member address-space extent (max member LPN + 1) that column
    /// `column` needs to hold a logical volume of `volume_pages` pages.
    /// Zero when the volume is too small to reach the column.
    #[must_use]
    pub fn member_extent(&self, column: usize, volume_pages: u64) -> u64 {
        assert!(column < self.columns(), "column {column} out of range");
        if volume_pages == 0 {
            return 0;
        }
        let columns = self.columns() as u64;
        let column = column as u64;
        let stripes = volume_pages.div_ceil(self.chunk_pages);
        // Largest stripe index below `stripes` assigned to this column.
        let last = stripes - 1;
        if last < column && last % columns != column {
            return 0;
        }
        let s_max = last - (last + columns - column) % columns;
        let tail = volume_pages - s_max * self.chunk_pages;
        (s_max / columns) * self.chunk_pages + tail.min(self.chunk_pages)
    }

    /// Splits the contiguous logical extent `[lpn, lpn + pages)` into one
    /// [`StripeExtent`] per touched column, appended to `out` in order of
    /// first touched logical page. `out` is not cleared — callers reuse it
    /// as scratch.
    pub fn split(&self, lpn: u64, pages: u32, out: &mut Vec<StripeExtent>) {
        let first = out.len();
        let end = lpn + u64::from(pages);
        let mut seg = lpn;
        while seg < end {
            let seg_end = end.min((seg / self.chunk_pages + 1) * self.chunk_pages);
            let (column, member_lpn) = self.locate(seg);
            let len = u32::try_from(seg_end - seg).expect("segment within a chunk");
            // Round-robin rotation makes per-column member extents of a
            // contiguous logical extent contiguous, so a later segment for
            // an already seen column always extends its extent.
            match out[first..].iter_mut().find(|e| e.column == column) {
                Some(extent) => {
                    debug_assert_eq!(
                        extent.member_lpn + u64::from(extent.pages),
                        member_lpn,
                        "per-column extents of a contiguous request are contiguous"
                    );
                    extent.pages += len;
                }
                None => out.push(StripeExtent {
                    column,
                    member_lpn,
                    pages: len,
                }),
            }
            seg = seg_end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_global_is_a_bijection() {
        for (members, chunk, redundancy) in [
            (1, 4, Redundancy::None),
            (3, 1, Redundancy::None),
            (4, 16, Redundancy::None),
            (2, 8, Redundancy::Mirror),
            (6, 5, Redundancy::Mirror),
        ] {
            let map = StripeMap::new(members, chunk, Redundancy::None);
            let _ = redundancy; // both schemes share the column arithmetic
            let mut seen = Vec::new();
            for lpn in 0..10_000 {
                let (c, m) = map.locate(lpn);
                assert!(c < map.columns());
                assert_eq!(map.global(c, m), lpn, "{members}x{chunk}: lpn {lpn}");
                seen.push((c, m));
            }
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), 10_000, "{members}x{chunk}: placements collide");
        }
    }

    #[test]
    fn member_extent_matches_brute_force() {
        for (members, chunk) in [(1, 4), (2, 3), (4, 16), (5, 7)] {
            let map = StripeMap::new(members, chunk, Redundancy::None);
            for volume in [0, 1, chunk - 1, chunk, 3 * chunk + 1, 1_000] {
                let mut max_plus_one = vec![0u64; members];
                for lpn in 0..volume {
                    let (c, m) = map.locate(lpn);
                    max_plus_one[c] = max_plus_one[c].max(m + 1);
                }
                for (c, &expected) in max_plus_one.iter().enumerate() {
                    assert_eq!(
                        map.member_extent(c, volume),
                        expected,
                        "{members}x{chunk}, volume {volume}, column {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn split_agrees_with_per_page_mapping() {
        let map = StripeMap::new(3, 4, Redundancy::None);
        let mut out = Vec::new();
        for lpn in 0..40 {
            for pages in 1..30u32 {
                out.clear();
                map.split(lpn, pages, &mut out);
                // Reconstruct the page set from the extents.
                let mut covered = Vec::new();
                for e in &out {
                    for m in e.member_lpn..e.member_lpn + u64::from(e.pages) {
                        covered.push(map.global(e.column, m));
                    }
                }
                covered.sort_unstable();
                let expected: Vec<u64> = (lpn..lpn + u64::from(pages)).collect();
                assert_eq!(covered, expected, "lpn {lpn} pages {pages}");
                // One extent per touched column, never more.
                let mut columns: Vec<usize> = out.iter().map(|e| e.column).collect();
                columns.sort_unstable();
                columns.dedup();
                assert_eq!(columns.len(), out.len(), "duplicate column extents");
            }
        }
    }

    #[test]
    fn single_member_split_is_identity() {
        let map = StripeMap::new(1, 16, Redundancy::None);
        let mut out = Vec::new();
        map.split(37, 1_000, &mut out);
        assert_eq!(
            out,
            vec![StripeExtent {
                column: 0,
                member_lpn: 37,
                pages: 1_000
            }]
        );
    }

    #[test]
    fn mirror_pairs_devices() {
        let map = StripeMap::new(4, 8, Redundancy::Mirror);
        assert_eq!(map.columns(), 2);
        assert_eq!(map.devices_of(0), (0, Some(1)));
        assert_eq!(map.devices_of(1), (2, Some(3)));
        let plain = StripeMap::new(4, 8, Redundancy::None);
        assert_eq!(plain.devices_of(3), (3, None));
    }

    #[test]
    fn rack_scale_mapping_stays_a_bijection() {
        // The chunk math must not lose precision at rack member counts:
        // the stripe index arithmetic multiplies the column count into
        // member LPNs, which at 256 members and large volumes is where a
        // narrow intermediate would overflow first.
        for (members, chunk, redundancy) in [
            (64, 16, Redundancy::None),
            (64, 16, Redundancy::Mirror),
            (256, 32, Redundancy::None),
            (256, 8, Redundancy::Mirror),
        ] {
            let map = StripeMap::new(members, chunk, redundancy);
            // A volume far past u32 page indices, stepped sparsely.
            for lpn in (0..1u64 << 40).step_by((1 << 29) + 12_345) {
                let (c, m) = map.locate(lpn);
                assert!(c < map.columns());
                assert_eq!(map.global(c, m), lpn, "{members}x{chunk}: lpn {lpn}");
            }
            // Every device is reachable once the volume spans a full
            // rotation of the columns.
            let rotation = map.columns() as u64 * chunk;
            let mut touched = vec![false; map.columns()];
            for lpn in (0..rotation).step_by(chunk as usize) {
                touched[map.locate(lpn).0] = true;
            }
            assert!(touched.iter().all(|&t| t), "{members}x{chunk}: idle column");
        }
    }

    #[test]
    fn rack_scale_member_extent_matches_brute_force() {
        let map = StripeMap::new(64, 16, Redundancy::None);
        let volume = 64 * 16 * 5 + 7;
        let mut max_plus_one = vec![0u64; 64];
        for lpn in 0..volume {
            let (c, m) = map.locate(lpn);
            max_plus_one[c] = max_plus_one[c].max(m + 1);
        }
        for (c, &expected) in max_plus_one.iter().enumerate() {
            assert_eq!(map.member_extent(c, volume), expected, "column {c}");
        }
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn mirror_rejects_odd_member_count() {
        let _ = StripeMap::new(3, 8, Redundancy::Mirror);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn zero_members_panics() {
        let _ = StripeMap::new(0, 8, Redundancy::None);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_chunk_panics() {
        let _ = StripeMap::new(2, 0, Redundancy::None);
    }
}

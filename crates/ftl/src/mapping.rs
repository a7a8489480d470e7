//! The logical-to-physical page map.

use jitgc_nand::{Lpn, Ppn};

/// Entry of a logical page that is mapped nowhere. The device refuses a
/// geometry with this many pages, so no physical page number collides
/// with it.
const UNMAPPED: u32 = u32::MAX;

/// The page-mapping table: one 32-bit physical page number per logical
/// page, read and written as `Option<Ppn>`.
#[derive(Debug)]
pub(crate) struct Mapping(Vec<u32>);

impl Mapping {
    /// A table of `user_pages` unmapped logical pages.
    pub(crate) fn new(user_pages: u64) -> Self {
        Mapping(vec![UNMAPPED; user_pages as usize])
    }

    /// Where `lpn` lives, if anywhere; `None` too for an `lpn` beyond the
    /// table.
    pub(crate) fn get(&self, lpn: Lpn) -> Option<Ppn> {
        let entry = *self.0.get(lpn.0 as usize)?;
        (entry != UNMAPPED).then_some(Ppn(u64::from(entry)))
    }

    /// Maps `lpn` to `ppn`.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is beyond the table or `ppn` does not fit an entry.
    pub(crate) fn set(&mut self, lpn: Lpn, ppn: Ppn) {
        let entry = u32::try_from(ppn.0).expect("device page numbers fit 32 bits");
        assert_ne!(
            entry, UNMAPPED,
            "device page numbers stay below the sentinel"
        );
        self.0[lpn.0 as usize] = entry;
    }

    /// Unmaps `lpn`, returning where it lived.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is beyond the table.
    pub(crate) fn take(&mut self, lpn: Lpn) -> Option<Ppn> {
        let was = self.get(lpn);
        self.0[lpn.0 as usize] = UNMAPPED;
        was
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_read_back_as_options() {
        let mut map = Mapping::new(4);
        assert_eq!(map.get(Lpn(0)), None);
        map.set(Lpn(0), Ppn(0));
        map.set(Lpn(3), Ppn(u64::from(u32::MAX) - 1));
        assert_eq!(map.get(Lpn(0)), Some(Ppn(0)));
        assert_eq!(map.get(Lpn(3)), Some(Ppn(u64::from(u32::MAX) - 1)));
        assert_eq!(map.take(Lpn(0)), Some(Ppn(0)));
        assert_eq!(map.take(Lpn(0)), None);
        assert_eq!(map.get(Lpn(4)), None, "beyond the table");
    }

    #[test]
    #[should_panic(expected = "below the sentinel")]
    fn the_sentinel_is_not_a_page_number() {
        Mapping::new(1).set(Lpn(0), Ppn(u64::from(u32::MAX)));
    }
}

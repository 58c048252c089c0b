//! Return Address Stack.
//!
//! Table II uses a 32-entry RAS in the decoupled fetcher and — for RET-ELF
//! and U-ELF — a second 32-entry *coupled* RAS in the fetcher. A RAS is a
//! circular stack: pushing beyond capacity silently overwrites the oldest
//! entry, so sufficiently deep recursion corrupts unwinding — a real
//! hardware behavior the server 2 workloads exercise.

use elf_types::Addr;

/// A circular return address stack.
#[derive(Debug, PartialEq, Eq)]
pub struct Ras {
    slots: Vec<Addr>,
    /// Monotonic top-of-stack counter; `tos % capacity` is the write slot.
    tos: u64,
    /// Number of live entries (<= capacity tracks underflow).
    live: u64,
}

impl Clone for Ras {
    fn clone(&self) -> Self {
        Ras {
            slots: self.slots.clone(),
            tos: self.tos,
            live: self.live,
        }
    }

    /// In-place copy reusing `self`'s slot allocation — flush-path RAS
    /// repair restores the architectural stack every squash, so this runs
    /// hot and must not reallocate.
    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
        self.tos = source.tos;
        self.live = source.live;
    }
}

impl Ras {
    /// Creates a RAS with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Ras {
            slots: vec![0; capacity],
            tos: 0,
            live: 0,
        }
    }

    /// The Table II geometry (32 entries, 0.25 KB).
    #[must_use]
    pub fn paper() -> Self {
        Ras::new(32)
    }

    /// Pushes a return address (calls).
    pub fn push(&mut self, ra: Addr) {
        let cap = self.slots.len() as u64;
        self.slots[(self.tos % cap) as usize] = ra;
        self.tos += 1;
        self.live = (self.live + 1).min(cap);
    }

    /// Pops the predicted return address. Returns `None` on underflow.
    pub fn pop(&mut self) -> Option<Addr> {
        if self.live == 0 {
            return None;
        }
        self.tos -= 1;
        self.live -= 1;
        let cap = self.slots.len() as u64;
        Some(self.slots[(self.tos % cap) as usize])
    }

    /// Peeks at the top entry without popping.
    #[must_use]
    pub fn peek(&self) -> Option<Addr> {
        if self.live == 0 {
            return None;
        }
        let cap = self.slots.len() as u64;
        Some(self.slots[((self.tos - 1) % cap) as usize])
    }

    /// Number of live entries.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.live as usize
    }

    /// Capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Clears the stack (used when rebuilding state on a flush).
    pub fn clear(&mut self) {
        self.tos = 0;
        self.live = 0;
    }

    /// Storage in bits (48-bit addresses).
    #[must_use]
    pub fn storage_bits(&self) -> usize {
        self.slots.len() * 48
    }

    /// Checks the counter invariants (`live <= capacity`, `tos >= live` —
    /// the stack can never hold more live entries than positions pushed)
    /// and describes the first violation. `None` means the stack is
    /// structurally sound. Used by the simulator's invariant mode
    /// (`SimConfig::check`); read-only.
    #[must_use]
    pub fn invariant_violation(&self) -> Option<String> {
        let cap = self.slots.len() as u64;
        if self.live > cap {
            return Some(format!("ras live {} exceeds capacity {cap}", self.live));
        }
        if self.tos < self.live {
            return Some(format!(
                "ras tos {} below live count {} (counters inconsistent)",
                self.tos, self.live
            ));
        }
        None
    }

    /// Saves or restores the stack contents and position counters
    /// (loading requires a stack of the same capacity).
    ///
    /// # Errors
    ///
    /// Loading fails on truncated bytes, another capacity or inconsistent
    /// counters.
    pub fn state(&mut self, io: &mut impl elf_types::StateIo) -> Result<(), elf_types::SnapError> {
        io.table(&mut self.slots, "ras slots")?;
        io.value(&mut self.tos)?;
        io.value(&mut self.live)?;
        if self.live > self.slots.len() as u64 || self.tos < self.live {
            return Err(elf_types::SnapError::mismatch("ras counters inconsistent"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut r = Ras::new(8);
        r.push(0x10);
        r.push(0x20);
        r.push(0x30);
        assert_eq!(r.pop(), Some(0x30));
        assert_eq!(r.pop(), Some(0x20));
        assert_eq!(r.pop(), Some(0x10));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn peek_does_not_pop() {
        let mut r = Ras::new(4);
        r.push(0x40);
        assert_eq!(r.peek(), Some(0x40));
        assert_eq!(r.depth(), 1);
        assert_eq!(r.pop(), Some(0x40));
        assert_eq!(r.peek(), None);
    }

    #[test]
    fn overflow_wraps_and_corrupts_deep_unwinding() {
        let mut r = Ras::new(4);
        for i in 1..=6u64 {
            r.push(i * 0x100);
        }
        // Top 4 unwind correctly…
        assert_eq!(r.pop(), Some(0x600));
        assert_eq!(r.pop(), Some(0x500));
        assert_eq!(r.pop(), Some(0x400));
        assert_eq!(r.pop(), Some(0x300));
        // …but the two oldest were overwritten.
        assert_eq!(r.pop(), None, "overflow loses the oldest frames");
    }

    #[test]
    fn clear_resets() {
        let mut r = Ras::new(4);
        r.push(1);
        r.push(2);
        r.clear();
        assert_eq!(r.depth(), 0);
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn clone_gives_independent_copies() {
        let mut a = Ras::new(4);
        a.push(0x1000);
        let mut b = a.clone();
        b.push(0x2000);
        assert_eq!(a.depth(), 1);
        assert_eq!(b.depth(), 2);
        assert_eq!(a.peek(), Some(0x1000));
    }

    #[test]
    fn paper_storage_is_quarter_kb() {
        assert_eq!(Ras::paper().storage_bits() / 8, 192);
        // (48-bit VAs; the paper quotes 0.25 KB assuming 64-bit slots.)
    }
}

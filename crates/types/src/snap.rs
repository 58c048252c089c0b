//! Hand-rolled binary snapshot serialization.
//!
//! The checkpoint/resume feature (DESIGN.md §14) needs every stateful
//! component to round-trip through bytes without external dependencies
//! (the build environment is offline). This module provides the shared
//! vocabulary: a [`SnapWriter`]/[`SnapReader`] pair over a byte buffer,
//! the [`Snap`] trait for plain-data values and the [`StateIo`] visitor
//! for components.
//!
//! Format rules:
//!
//! - all integers are little-endian and fixed-width; `usize` travels as
//!   `u64`;
//! - variable-length containers (`Vec`, `VecDeque`, `String`) are
//!   length-prefixed with a `u64` count;
//! - `Option<T>` is a `u8` tag (0/1) followed by the payload when present;
//! - enums are a `u8` discriminant followed by variant payloads;
//! - there is no self-description: reader and writer must agree on the
//!   layout, which is what the snapshot-file *version* number pins down
//!   (bump it on any layout change — see `elf_core::snapshot`).
//!
//! Every type describes its layout once. Plain-data values get their
//! [`Snap`] impl from a field list ([`snap_struct!`](crate::snap_struct))
//! or a tagged variant list ([`snap_enum!`](crate::snap_enum)).
//! Components with private state and configuration-derived geometry
//! write one `fn state(&mut self, io: &mut impl StateIo)` body: the same
//! body saves through a [`SnapWriter`] and loads in place through a
//! [`SnapReader`] into an instance built from the same configuration.
//! Geometry and presence checks ([`StateIo::fixed_len`],
//! [`StateIo::bounded_len`], [`StateIo::present`]) pass trivially on
//! save and make corrupt or mismatched bytes surface as [`SnapError`] on
//! load instead of panics or silent corruption. Derived state that is
//! written in a canonical form branches on [`StateIo::loading`].

use std::collections::VecDeque;

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended before the expected value.
    UnexpectedEof {
        /// What was being read.
        what: &'static str,
    },
    /// An enum tag or bool byte had no defined meaning.
    BadTag {
        /// What was being read.
        what: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// The decoded state does not fit the constructed component (wrong
    /// table geometry, wrong program, ...).
    Mismatch {
        /// Human-readable description of the disagreement.
        what: String,
    },
}

impl SnapError {
    /// Shorthand for a [`SnapError::Mismatch`].
    #[must_use]
    pub fn mismatch(what: impl Into<String>) -> Self {
        SnapError::Mismatch { what: what.into() }
    }
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::UnexpectedEof { what } => {
                write!(f, "snapshot truncated while reading {what}")
            }
            SnapError::BadTag { what, tag } => {
                write!(f, "snapshot has invalid tag {tag} for {what}")
            }
            SnapError::Mismatch { what } => write!(f, "snapshot mismatch: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only byte sink for snapshot serialization.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Consumes the writer, returning the serialized bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes verbatim (no length prefix).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Cursor over serialized snapshot bytes.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        SnapReader { buf: bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads `n` raw bytes.
    pub fn raw(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::UnexpectedEof { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u64` element count, bounded by the remaining bytes so a
    /// corrupt length cannot trigger a huge allocation.
    pub fn count(&mut self, what: &'static str) -> Result<usize, SnapError> {
        let n = u64::load(self)?;
        // Every element costs at least one byte in this format.
        if n > self.remaining() as u64 {
            return Err(SnapError::Mismatch {
                what: format!(
                    "{what}: count {n} exceeds remaining {} bytes",
                    self.remaining()
                ),
            });
        }
        Ok(n as usize)
    }
}

/// A type that serializes itself into a [`SnapWriter`] and reconstructs
/// itself from a [`SnapReader`].
pub trait Snap: Sized {
    /// Appends this value to `w`.
    fn save(&self, w: &mut SnapWriter);
    /// Reads one value from `r`.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// One direction of a component's snapshot: [`SnapWriter`] saves the
/// visited state, [`SnapReader`] overwrites it in place. A component's
/// single `state` body drives either, so its layout is written once.
pub trait StateIo {
    /// Whether this visitor loads (restores) rather than saves.
    fn loading(&self) -> bool;

    /// Saves `*v`, or loads a value into it.
    ///
    /// # Errors
    ///
    /// Loading fails on truncated or corrupt bytes.
    fn value<T: Snap>(&mut self, v: &mut T) -> Result<(), SnapError>;

    /// Writes the length `n`, or reads a length (bounded by the remaining
    /// bytes) and returns it.
    ///
    /// # Errors
    ///
    /// Loading fails on truncated bytes or an impossible length.
    fn len(&mut self, n: usize, what: &'static str) -> Result<usize, SnapError>;

    /// Saves the items of `seq` in order, or rebuilds `seq` from `n`
    /// loaded items (`n` is the item count when saving).
    ///
    /// # Errors
    ///
    /// Loading fails on truncated or corrupt bytes.
    fn items<S: Seq>(&mut self, seq: &mut S, n: usize) -> Result<(), SnapError>;

    /// A length the configuration fixes: loading requires exactly `n`.
    ///
    /// # Errors
    ///
    /// Loading fails with [`SnapError::Mismatch`] on any other length.
    fn fixed_len(&mut self, n: usize, what: &'static str) -> Result<(), SnapError> {
        let got = self.len(n, what)?;
        if got != n {
            return Err(SnapError::mismatch(format!(
                "{what}: snapshot holds {got}, configuration has {n}"
            )));
        }
        Ok(())
    }

    /// A length that may not exceed `cap`; returns the visited length.
    ///
    /// # Errors
    ///
    /// Loading fails with [`SnapError::Mismatch`] above `cap`.
    fn bounded_len(
        &mut self,
        n: usize,
        cap: usize,
        what: &'static str,
    ) -> Result<usize, SnapError> {
        let got = self.len(n, what)?;
        if got > cap {
            return Err(SnapError::mismatch(format!(
                "{what} holds {got} > capacity {cap}"
            )));
        }
        Ok(got)
    }

    /// The presence tag (0 absent, 1 present) of optional state whose
    /// presence the configuration decides.
    ///
    /// # Errors
    ///
    /// Loading fails with [`SnapError::BadTag`] on a tag other than 0 or
    /// 1, and with [`SnapError::Mismatch`] when the tag disagrees with
    /// `present`.
    fn present(&mut self, present: bool, what: &'static str) -> Result<(), SnapError> {
        let mut tag = u8::from(present);
        self.value(&mut tag)?;
        match tag {
            0 | 1 if (tag == 1) == present => Ok(()),
            0 | 1 => Err(SnapError::mismatch(format!(
                "snapshot {what} presence (tag {tag}) does not match the configuration"
            ))),
            t => Err(SnapError::BadTag {
                what,
                tag: u64::from(t),
            }),
        }
    }

    /// A sequence whose length the configuration fixes (a table).
    ///
    /// # Errors
    ///
    /// As [`StateIo::fixed_len`] and [`StateIo::items`].
    fn table<S: Seq>(&mut self, seq: &mut S, what: &'static str) -> Result<(), SnapError> {
        let n = seq.item_count();
        self.fixed_len(n, what)?;
        self.items(seq, n)
    }

    /// A sequence holding at most `cap` items (a queue).
    ///
    /// # Errors
    ///
    /// As [`StateIo::bounded_len`] and [`StateIo::items`].
    fn bounded<S: Seq>(
        &mut self,
        seq: &mut S,
        cap: usize,
        what: &'static str,
    ) -> Result<(), SnapError> {
        let n = self.bounded_len(seq.item_count(), cap, what)?;
        self.items(seq, n)
    }
}

impl StateIo for SnapWriter {
    fn loading(&self) -> bool {
        false
    }

    fn value<T: Snap>(&mut self, v: &mut T) -> Result<(), SnapError> {
        v.save(self);
        Ok(())
    }

    fn len(&mut self, n: usize, _what: &'static str) -> Result<usize, SnapError> {
        n.save(self);
        Ok(n)
    }

    fn items<S: Seq>(&mut self, seq: &mut S, n: usize) -> Result<(), SnapError> {
        debug_assert_eq!(n, seq.item_count(), "saving visits every item");
        seq.save_items(self);
        Ok(())
    }
}

impl StateIo for SnapReader<'_> {
    fn loading(&self) -> bool {
        true
    }

    fn value<T: Snap>(&mut self, v: &mut T) -> Result<(), SnapError> {
        *v = T::load(self)?;
        Ok(())
    }

    fn len(&mut self, _n: usize, what: &'static str) -> Result<usize, SnapError> {
        self.count(what)
    }

    fn items<S: Seq>(&mut self, seq: &mut S, n: usize) -> Result<(), SnapError> {
        seq.load_items(self, n)
    }
}

/// A growable sequence [`StateIo::items`] can save item by item or
/// rebuild from loaded items.
pub trait Seq {
    /// Number of items.
    fn item_count(&self) -> usize;
    /// Appends every item to `w`, in order.
    fn save_items(&self, w: &mut SnapWriter);
    /// Replaces the contents with `n` items read from `r`.
    ///
    /// # Errors
    ///
    /// Fails on truncated or corrupt bytes.
    fn load_items(&mut self, r: &mut SnapReader<'_>, n: usize) -> Result<(), SnapError>;
}

macro_rules! snap_seq {
    ($($seq:ident),*) => {$(
        impl<T: Snap> Seq for $seq<T> {
            fn item_count(&self) -> usize {
                self.len()
            }
            fn save_items(&self, w: &mut SnapWriter) {
                for v in self {
                    v.save(w);
                }
            }
            fn load_items(&mut self, r: &mut SnapReader<'_>, n: usize) -> Result<(), SnapError> {
                *self = (0..n).map(|_| T::load(r)).collect::<Result<_, _>>()?;
                Ok(())
            }
        }

        impl<T: Snap> Snap for $seq<T> {
            fn save(&self, w: &mut SnapWriter) {
                self.len().save(w);
                self.save_items(w);
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                let n = r.count(stringify!($seq))?;
                let mut out = $seq::new();
                out.load_items(r, n)?;
                Ok(out)
            }
        }
    )*};
}

snap_seq!(Vec, VecDeque);

macro_rules! snap_int {
    ($($t:ty),*) => {$(
        impl Snap for $t {
            fn save(&self, w: &mut SnapWriter) {
                w.raw(&self.to_le_bytes());
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                let b = r.raw(size_of::<$t>(), stringify!($t))?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("raw returns the requested length")))
            }
        }
    )*};
}

snap_int!(u8, u16, u32, u64, u128, i8, i64);

impl Snap for usize {
    fn save(&self, w: &mut SnapWriter) {
        (*self as u64).save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let v = u64::load(r)?;
        usize::try_from(v).map_err(|_| SnapError::mismatch(format!("usize value {v} does not fit")))
    }
}

impl Snap for bool {
    fn save(&self, w: &mut SnapWriter) {
        u8::from(*self).save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match u8::load(r)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(SnapError::BadTag {
                what: "bool",
                tag: u64::from(t),
            }),
        }
    }
}

impl Snap for f64 {
    fn save(&self, w: &mut SnapWriter) {
        self.to_bits().save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(f64::from_bits(u64::load(r)?))
    }
}

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        self.len().save(w);
        w.raw(self.as_bytes());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.count("string length")?;
        let bytes = r.raw(n, "string bytes")?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapError::mismatch("string is not valid UTF-8"))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        self.is_some().save(w);
        if let Some(v) = self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match u8::load(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            t => Err(SnapError::BadTag {
                what: "option",
                tag: u64::from(t),
            }),
        }
    }
}

macro_rules! snap_tuple {
    ($(($($t:ident $i:tt),*)),*) => {$(
        impl<$($t: Snap),*> Snap for ($($t,)*) {
            fn save(&self, w: &mut SnapWriter) {
                $(self.$i.save(w);)*
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(($($t::load(r)?,)*))
            }
        }
    )*};
}

snap_tuple!((A 0, B 1), (A 0, B 1, C 2));

impl<T: Snap + Copy + Default, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::load(r)?;
        }
        Ok(out)
    }
}

/// Implements [`Snap`] for a struct from its field list: fields are saved
/// in the listed order and loaded back in the same order.
///
/// A field written as `name as T => load` travels as `T` (built with
/// `T::from`) and is converted back with `load`. An optional trailing
/// `check f` validates the loaded value with
/// `f(&value) -> Result<(), SnapError>`.
///
/// ```
/// use elf_types::{snap_struct, Snap, SnapReader, SnapWriter};
///
/// #[derive(Debug, PartialEq)]
/// struct Pair {
///     a: u32,
///     b: bool,
/// }
/// snap_struct!(Pair { a, b });
///
/// let mut w = SnapWriter::new();
/// Pair { a: 7, b: true }.save(&mut w);
/// let bytes = w.into_bytes();
/// assert_eq!(Pair::load(&mut SnapReader::new(&bytes)).unwrap(), Pair { a: 7, b: true });
/// ```
#[macro_export]
macro_rules! snap_struct {
    (@save $w:ident, $e:expr) => {
        $crate::snap::Snap::save(&$e, $w)
    };
    (@save $w:ident, $e:expr, $t:ty) => {
        $crate::snap::Snap::save(&<$t>::from($e), $w)
    };
    (@load $r:ident) => {
        $crate::snap::Snap::load($r)?
    };
    (@load $r:ident, $t:ty, $conv:expr) => {
        ($conv)(<$t as $crate::snap::Snap>::load($r)?)
    };
    ($ty:ident { $($f:ident $(as $t:ty => $conv:expr)?),* $(,)? } $(check $check:expr)?) => {
        impl $crate::snap::Snap for $ty {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                $($crate::snap_struct!(@save w, self.$f $(, $t)?);)*
            }
            fn load(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<Self, $crate::snap::SnapError> {
                let v = $ty {
                    $($f: $crate::snap_struct!(@load r $(, $t, $conv)?),)*
                };
                $(($check)(&v)?;)?
                Ok(v)
            }
        }
    };
}

/// Implements [`Snap`] for an enum from its variant list: each variant is
/// a `u8` tag followed by its fields in the listed order. Tuple variants
/// name their fields positionally (`3 => Branch(kind)`); an unknown tag
/// loads as [`SnapError::BadTag`].
#[macro_export]
macro_rules! snap_enum {
    ($ty:ident { $($tag:literal => $var:ident $(($($tf:ident),*))? $({$($sf:ident),*})?),* $(,)? }) => {
        impl $crate::snap::Snap for $ty {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                match self {
                    $($ty::$var $(($($tf),*))? $({$($sf),*})? => {
                        $crate::snap::Snap::save(&($tag as u8), w);
                        $($($crate::snap::Snap::save($tf, w);)*)?
                        $($($crate::snap::Snap::save($sf, w);)*)?
                    })*
                }
            }
            fn load(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<Self, $crate::snap::SnapError> {
                match <u8 as $crate::snap::Snap>::load(r)? {
                    $($tag => {
                        $($(let $tf = $crate::snap::Snap::load(r)?;)*)?
                        $($(let $sf = $crate::snap::Snap::load(r)?;)*)?
                        Ok($ty::$var $(($($tf),*))? $({$($sf),*})?)
                    })*
                    t => Err($crate::snap::SnapError::BadTag {
                        what: stringify!($ty),
                        tag: u64::from(t),
                    }),
                }
            }
        }
    };
}

// --- Snap impls for this crate's vocabulary types -------------------------

use crate::fetch::{FaqBranch, FaqEntry, FaqTermination, FetchMode, PredSource, Prediction};
use crate::inst::{BranchKind, InstClass, StaticInst};

snap_enum!(BranchKind {
    0 => CondDirect,
    1 => UncondDirect,
    2 => Call,
    3 => Return,
    4 => IndirectJump,
    5 => IndirectCall,
});
snap_enum!(InstClass {
    0 => Alu,
    1 => Mul,
    2 => Div,
    3 => Load,
    4 => Store,
    5 => Simd,
    6 => Nop,
    7 => Branch(kind),
});
snap_struct!(StaticInst {
    pc,
    class,
    target,
    dst,
    srcs,
    behavior
});
snap_enum!(PredSource {
    0 => Bimodal,
    1 => TageTagged,
    2 => BranchTargetCache,
    3 => Ittage,
    4 => Ras,
    5 => Btb,
    6 => CoupledBimodal,
    7 => CoupledBtc,
    8 => CoupledRas,
    9 => StaticNotTaken,
    10 => DecodedTarget,
});
snap_struct!(Prediction {
    taken,
    target,
    source
});
snap_enum!(FetchMode { 0 => Coupled, 1 => Decoupled });
snap_enum!(FaqTermination {
    0 => TakenBranch(kind),
    1 => FallThrough,
    2 => BtbMiss,
});
snap_struct!(FaqBranch {
    offset,
    kind,
    pred_taken,
    pred_target,
    source,
    hist
});
snap_struct!(FaqEntry {
    start_pc,
    inst_count,
    term,
    next_pc,
    branches
});

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Snap + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = SnapWriter::new();
        v.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = T::load(&mut r).expect("round trip");
        assert_eq!(&back, v);
        assert_eq!(r.remaining(), 0, "no trailing bytes");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&0xdeadbeefu64);
        round_trip(&u128::MAX);
        round_trip(&-7i64);
        round_trip(&-3i8);
        round_trip(&true);
        round_trip(&3.5f64);
        round_trip(&String::from("641.leela"));
        round_trip(&42usize);
    }

    #[test]
    fn containers_round_trip() {
        round_trip(&vec![1u64, 2, 3]);
        round_trip(&Some(9u32));
        round_trip(&Option::<u32>::None);
        round_trip(&VecDeque::from([1u8, 2, 3]));
        round_trip(&(1u64, true, 3u8));
        round_trip(&[5u64, 6, 7, 8]);
    }

    #[test]
    fn vocabulary_types_round_trip() {
        round_trip(&BranchKind::IndirectCall);
        round_trip(&InstClass::Branch(BranchKind::Return));
        round_trip(&StaticInst::simple(0x1000, InstClass::Load));
        round_trip(&Prediction::not_taken());
        round_trip(&FetchMode::Decoupled);
        round_trip(&FaqTermination::TakenBranch(BranchKind::Call));
        let fb = FaqBranch {
            offset: 3,
            kind: BranchKind::CondDirect,
            pred_taken: true,
            pred_target: Some(0x2000),
            source: PredSource::TageTagged,
            hist: 0xabcdef,
        };
        round_trip(&fb);
        round_trip(&FaqEntry {
            start_pc: 0x1000,
            inst_count: 8,
            term: FaqTermination::FallThrough,
            next_pc: 0x1020,
            branches: vec![fb],
        });
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let mut w = SnapWriter::new();
        vec![1u64, 2, 3].save(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(Vec::<u64>::load(&mut r).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn corrupt_tags_error_cleanly() {
        let mut r = SnapReader::new(&[9]);
        assert!(bool::load(&mut r).is_err());
        let mut r = SnapReader::new(&[200]);
        assert!(BranchKind::load(&mut r).is_err());
        let mut r = SnapReader::new(&[2, 0]);
        assert!(Option::<u8>::load(&mut r).is_err());
    }

    #[test]
    fn state_io_checks_geometry_and_presence() {
        let mut w = SnapWriter::new();
        w.table(&mut vec![1u8, 2, 3], "table").unwrap();
        w.bounded(&mut VecDeque::from([4u64, 5]), 2, "queue")
            .unwrap();
        w.present(true, "extra").unwrap();
        let bytes = w.into_bytes();
        let load = |table_len: usize, cap: usize, present: bool| {
            let mut r = SnapReader::new(&bytes);
            let mut table = vec![0u8; table_len];
            let mut queue = VecDeque::<u64>::new();
            r.table(&mut table, "table")?;
            r.bounded(&mut queue, cap, "queue")?;
            r.present(present, "extra")?;
            Ok::<_, SnapError>((table, queue))
        };
        assert_eq!(
            load(3, 2, true),
            Ok((vec![1, 2, 3], VecDeque::from([4, 5])))
        );
        let mismatch = |res| matches!(res, Err(SnapError::Mismatch { .. }));
        assert!(mismatch(load(4, 2, true)), "table length must match");
        assert!(mismatch(load(3, 1, true)), "queue must fit its capacity");
        assert!(mismatch(load(3, 2, false)), "presence must match");
        let mut r = SnapReader::new(&[2]);
        assert!(matches!(
            r.present(true, "extra"),
            Err(SnapError::BadTag { tag: 2, .. })
        ));
    }

    #[test]
    fn absurd_length_prefix_is_rejected_without_allocation() {
        let mut w = SnapWriter::new();
        u64::MAX.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            Vec::<u64>::load(&mut r),
            Err(SnapError::Mismatch { .. })
        ));
    }
}

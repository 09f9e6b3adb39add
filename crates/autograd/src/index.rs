//! Borrow-or-copy index lists.
//!
//! Every fused tape op records the index/segment lists it replays in the
//! backward sweep (gather ids, active rows, shard bounds). Copying each list
//! into a pooled `Vec<usize>` at record time is cheap per call, but paid
//! again at every sequence position of every forward. A plan already owns
//! identical lists with a lifetime longer than any tape, so the tape records
//! a refcounted *borrow* of the plan's buffer instead.
//!
//! [`SharedIndices`] is that borrow: an `Arc<[usize]>` plus a sub-range.
//! [`IndexInput`] is what callers hand the ops — a shared view recorded
//! as-is with **zero** copying (what the models pass), or a plain slice the
//! tape copies (callers that hold only a slice). There is one contract, not
//! a mode: the recorded list contents are identical either way, so results
//! are bitwise identical by construction.
//! [`crate::Graph::index_words_copied`] counts the words the tape actually
//! copies, which is how tests assert "zero".

use std::ops::Deref;
use std::sync::Arc;

/// A refcounted view of an index list owned by long-lived structure (a
/// cached megabatch composition). Cloning bumps a refcount; recording one on
/// a tape op copies nothing.
#[derive(Debug, Clone)]
pub struct SharedIndices {
    buf: Arc<[usize]>,
    start: usize,
    end: usize,
}

impl SharedIndices {
    /// View of `buf[start..end]`. Panics when the range is out of bounds.
    pub fn new(buf: Arc<[usize]>, start: usize, end: usize) -> Self {
        assert!(
            start <= end && end <= buf.len(),
            "SharedIndices: range {start}..{end} out of bounds for buffer of {}",
            buf.len()
        );
        Self { buf, start, end }
    }

    /// View of the whole buffer.
    pub fn full(buf: Arc<[usize]>) -> Self {
        let end = buf.len();
        Self { buf, start: 0, end }
    }

    /// The viewed indices.
    pub fn as_slice(&self) -> &[usize] {
        &self.buf[self.start..self.end]
    }

    /// Number of indices in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// An index list handed to a tape op at record time.
///
/// `Copied`: the tape copies the slice into a pooled buffer before the
/// caller's borrow ends. `Shared`: the tape stores the refcounted view
/// itself. The op's recorded contents — and therefore every forward value
/// and gradient — are the same either way.
#[derive(Debug, Clone)]
pub enum IndexInput<'a> {
    /// Borrowed slice; the tape copies it into a pooled buffer.
    Copied(&'a [usize]),
    /// Shared view; the tape records it by refcount, copying nothing.
    Shared(SharedIndices),
}

impl IndexInput<'_> {
    /// The indices, whichever representation carries them.
    pub fn as_slice(&self) -> &[usize] {
        match self {
            IndexInput::Copied(s) => s,
            IndexInput::Shared(sh) => sh.as_slice(),
        }
    }
}

impl<'a> From<&'a [usize]> for IndexInput<'a> {
    fn from(s: &'a [usize]) -> Self {
        IndexInput::Copied(s)
    }
}

impl<'a> From<&'a Vec<usize>> for IndexInput<'a> {
    fn from(s: &'a Vec<usize>) -> Self {
        IndexInput::Copied(s)
    }
}

impl<'a, const N: usize> From<&'a [usize; N]> for IndexInput<'a> {
    fn from(s: &'a [usize; N]) -> Self {
        IndexInput::Copied(s)
    }
}

impl<'a> From<SharedIndices> for IndexInput<'a> {
    fn from(sh: SharedIndices) -> Self {
        IndexInput::Shared(sh)
    }
}

impl<'a> From<&SharedIndices> for IndexInput<'a> {
    fn from(sh: &SharedIndices) -> Self {
        IndexInput::Shared(sh.clone())
    }
}

/// The list a tape op actually stores: a pooled copy (recycled into the
/// index pool on reset) or a shared view (dropped on reset — one refcount
/// decrement).
#[derive(Debug)]
pub(crate) enum IndexList {
    Pooled(Vec<usize>),
    Shared(SharedIndices),
}

impl Deref for IndexList {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        match self {
            IndexList::Pooled(v) => v,
            IndexList::Shared(sh) => sh.as_slice(),
        }
    }
}

impl Default for IndexList {
    fn default() -> Self {
        IndexList::Pooled(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_view_slices_and_clones_cheaply() {
        let buf: Arc<[usize]> = vec![5, 6, 7, 8, 9].into();
        let sh = SharedIndices::new(buf.clone(), 1, 4);
        assert_eq!(sh.as_slice(), &[6, 7, 8]);
        assert_eq!(sh.len(), 3);
        let clone = sh.clone();
        assert_eq!(clone.as_slice(), sh.as_slice());
        let full = SharedIndices::full(buf);
        assert_eq!(full.len(), 5);
        assert!(!full.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn shared_view_rejects_bad_range() {
        let buf: Arc<[usize]> = vec![1, 2].into();
        let _ = SharedIndices::new(buf, 1, 3);
    }

    #[test]
    fn input_conversions_expose_the_same_slice() {
        let v = vec![1usize, 2, 3];
        let from_vec: IndexInput = (&v).into();
        assert_eq!(from_vec.as_slice(), &[1, 2, 3]);
        let from_slice: IndexInput = v.as_slice().into();
        assert_eq!(from_slice.as_slice(), &[1, 2, 3]);
        let arr = [4usize, 5];
        let from_arr: IndexInput = (&arr).into();
        assert_eq!(from_arr.as_slice(), &[4, 5]);
        let sh = SharedIndices::full(vec![9usize].into());
        let from_shared: IndexInput = sh.into();
        assert_eq!(from_shared.as_slice(), &[9]);
    }
}

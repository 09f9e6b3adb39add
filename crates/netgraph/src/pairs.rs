//! The storage [`Routing`](crate::Routing) and
//! [`TrafficMatrix`](crate::TrafficMatrix) share: an entry for each ordered
//! pair that has one, and nothing for the rest of the `n²`.
//!
//! A [`PairTable`] keeps two aligned vectors, ascending keys
//! `src · n + dst` and their entries, so a lookup is a binary search and a
//! walk is row-major. Its JSON is still the dense table the types carried
//! before: `{"num_nodes":n,"<field>":[…]}` with one slot per pair, an empty
//! pair written as its [`Entry::EMPTY`]. The slot order and the dense
//! bytes are frozen by `tests/scenario_wire.rs`. Dataset files and `Predict` lines
//! are made of these bytes. The reader streams the slots
//! into the two vectors and keeps the table's length, not its slots, so a
//! line holding a table of the wrong length reads back to the same bytes
//! (and `check_shape` refuses it, as before).

use crate::graph::NodeId;
use serde::json::Reader;
use serde::value::DeError;
use serde::{Deserialize, Serialize};

/// Keys are `u32`, so a table covers at most `2¹⁶` nodes.
const MAX_NODES: usize = 1 << 16;

/// What a [`PairTable`] holds per pair, and how one looks on the wire.
pub(crate) trait Entry: Sized + Serialize {
    /// The table's key in the JSON object, after `num_nodes`.
    const FIELD: &'static str;
    /// The slot of a pair with no entry, as JSON text.
    const EMPTY: &'static str;
    /// One slot from the text: `None` for a pair with no entry.
    fn read_json(r: &mut Reader<'_>) -> Result<Option<Self>, DeError>;
}

/// Entries for some ordered pairs of `num_nodes` nodes, keyed row-major.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PairTable<T> {
    num_nodes: usize,
    /// The dense table's length: `num_nodes²` from every constructor, what
    /// the text held for a table read from it.
    slots: usize,
    /// `src · num_nodes + dst`, ascending, each below `slots`.
    keys: Vec<u32>,
    /// The entry of each key.
    values: Vec<T>,
}

impl<T> PairTable<T> {
    /// An empty table over `num_nodes` nodes, with room for `capacity`
    /// entries.
    pub(crate) fn with_capacity(num_nodes: usize, capacity: usize) -> Self {
        assert!(
            num_nodes <= MAX_NODES,
            "{num_nodes} nodes: a pair table covers at most {MAX_NODES}"
        );
        Self {
            num_nodes,
            slots: num_nodes * num_nodes,
            keys: Vec::with_capacity(capacity),
            values: Vec::with_capacity(capacity),
        }
    }

    pub(crate) fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The dense table's length (see the field).
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The key of `(src, dst)`; `None` when either id is not below
    /// `num_nodes` (or the key would not fit, which only a table read from
    /// text can reach: no entry of it has such a key).
    pub(crate) fn key(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        if src >= self.num_nodes || dst >= self.num_nodes {
            return None;
        }
        let key = src.checked_mul(self.num_nodes)?.checked_add(dst)?;
        u32::try_from(key).ok()
    }

    /// The entry of `key`, if it has one.
    pub(crate) fn get(&self, key: u32) -> Option<&T> {
        let i = self.keys.binary_search(&key).ok()?;
        Some(&self.values[i])
    }

    /// Give `key` the entry `value`, or none.
    pub(crate) fn set(&mut self, key: u32, value: Option<T>) {
        match (self.keys.binary_search(&key), value) {
            (Ok(i), Some(value)) => self.values[i] = value,
            (Ok(i), None) => {
                self.keys.remove(i);
                self.values.remove(i);
            }
            (Err(i), Some(value)) => {
                self.keys.insert(i, key);
                self.values.insert(i, value);
            }
            (Err(_), None) => {}
        }
    }

    /// Release the spare capacity.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.keys.shrink_to_fit();
        self.values.shrink_to_fit();
    }

    /// Keep the entries `keep` answers `true` for, after it has seen (and
    /// possibly changed) each one.
    pub(crate) fn retain_mut(&mut self, mut keep: impl FnMut(&mut T) -> bool) {
        let mut kept = 0;
        for i in 0..self.keys.len() {
            if keep(&mut self.values[i]) {
                self.keys.swap(kept, i);
                self.values.swap(kept, i);
                kept += 1;
            }
        }
        self.keys.truncate(kept);
        self.values.truncate(kept);
    }

    /// `(src, dst, entry)` in row-major order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId, &T)> {
        let n = self.num_nodes;
        self.keys
            .iter()
            .zip(&self.values)
            .map(move |(&key, value)| {
                let key = usize::try_from(key).expect("a u32 key fits a usize");
                (key / n, key % n, value)
            })
    }

    /// The entries, in key order.
    pub(crate) fn values(&self) -> &[T] {
        &self.values
    }

    /// Each slot of the dense table in order: the entry, or `None`.
    fn dense(&self) -> impl Iterator<Item = Option<&T>> {
        let mut stored = self.keys.iter().zip(&self.values).peekable();
        (0..self.slots).map(move |slot| {
            stored
                .next_if(|(&key, _)| usize::try_from(key) == Ok(slot))
                .map(|(_, value)| value)
        })
    }
}

impl<T: Entry> PairTable<T> {
    /// A table read from the wire, one slot at a time.
    fn read(
        num_nodes: usize,
        mut next_slot: impl FnMut() -> Result<Option<Option<T>>, DeError>,
    ) -> Result<Self, DeError> {
        let mut table = Self {
            num_nodes,
            slots: 0,
            keys: Vec::new(),
            values: Vec::new(),
        };
        while let Some(slot) = next_slot()? {
            if let Some(value) = slot {
                let key = u32::try_from(table.slots).map_err(|_| {
                    DeError::new(format!(
                        "`{}` has an entry at slot {}, past the 2^32 a table keys",
                        T::FIELD,
                        table.slots
                    ))
                })?;
                table.keys.push(key);
                table.values.push(value);
            }
            table.slots += 1;
        }
        table.shrink_to_fit();
        Ok(table)
    }
}

impl<T: Entry> Serialize for PairTable<T> {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"num_nodes\":");
        self.num_nodes.serialize_json(out);
        out.push_str(",\"");
        out.push_str(T::FIELD);
        out.push_str("\":[");
        for (i, slot) in self.dense().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match slot {
                Some(value) => value.serialize_json(out),
                None => out.push_str(T::EMPTY),
            }
        }
        out.push_str("]}");
    }
}

/// Reads what the derive reads for `{num_nodes: usize, <field>: Vec<_>}`:
/// keys in any order, the first occurrence of a key wins and later ones are
/// skipped unread, unknown keys are skipped, and a missing one is an error
/// (`num_nodes` first), with the derive's messages.
impl<'de, T: Entry> Deserialize<'de> for PairTable<T> {
    fn deserialize_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        if r.peek() != Some(b'{') {
            return Err(r.expected("object with field `num_nodes`"));
        }
        r.begin_object()?;
        let mut num_nodes = None;
        let mut table: Option<Self> = None;
        while let Some(key) = r.next_key()? {
            match &*key {
                "num_nodes" if num_nodes.is_none() => num_nodes = Some(usize::deserialize_json(r)?),
                k if k == T::FIELD && table.is_none() => {
                    if r.peek() != Some(b'[') {
                        return Err(r.expected("array"));
                    }
                    r.begin_array()?;
                    // The node count may come after the table: keys are slot
                    // numbers either way, so it is set once both are read.
                    table = Some(Self::read(0, || {
                        if r.next_element()? {
                            T::read_json(r).map(Some)
                        } else {
                            Ok(None)
                        }
                    })?);
                }
                _ => r.skip()?,
            }
        }
        let num_nodes = num_nodes.ok_or_else(|| DeError::new("missing field `num_nodes`"))?;
        let mut table =
            table.ok_or_else(|| DeError::new(format!("missing field `{}`", T::FIELD)))?;
        table.num_nodes = num_nodes;
        Ok(table)
    }
}

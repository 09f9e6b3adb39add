//! Size-classed, bounded free lists of `Vec<T>` — the allocator under a tape.
//!
//! A tape replays the same shapes cycle after cycle ([`crate::Graph::reset`]
//! ends a cycle), so the buffers one cycle returns are exactly what the next
//! one asks for — provided a request is matched with a buffer that *fits*.
//! [`BufPool`] keeps one LIFO free list per power-of-two capacity class:
//!
//! - **take**: a request for `len` elements pops from class `⌈log₂ len⌉`;
//!   when that list is empty it allocates `with_capacity(1 << class)` and
//!   counts a **miss**. Either way the buffer holds `len` elements without
//!   reallocating.
//! - **put**: a buffer that came from `take` goes back under
//!   `⌊log₂ capacity⌋`, so whatever class it is later popped from, it fits,
//!   and stops counting as live. Zero-capacity vectors are dropped, never
//!   parked.
//! - **bound**: each class parks at most as many buffers as were ever taken
//!   from it and outstanding at the same time within one cycle (its
//!   high-water mark of live buffers). A buffer returned beyond that is freed.
//!   The pool therefore converges on the working set of the largest cycle it
//!   has seen and stays there.
//! - **adopt**: a buffer of unknown origin — allocated elsewhere (a caller's
//!   `Matrix` handed to [`crate::Graph::param`]) or met while a cycle is torn
//!   down — is parked up to the same bound without touching the live count,
//!   so it cannot hide a buffer that is still out; a class nothing was ever
//!   taken from adopts nothing.
//!
//! A warm pool — one that has seen every shape of its workload once —
//! allocates nothing and frees nothing.

/// One capacity class: buffers with `capacity` in `[2^k, 2^(k+1))`.
struct Class<T> {
    free: Vec<Vec<T>>,
    /// Buffers taken from this class and not yet put back, this cycle.
    live: usize,
    /// Largest `live` ever reached: the parking bound.
    limit: usize,
}

impl<T> Default for Class<T> {
    fn default() -> Self {
        Self {
            free: Vec::new(),
            live: 0,
            limit: 0,
        }
    }
}

/// Occupancy of one capacity class, for tests and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassStats {
    /// Smallest capacity (in elements) a buffer of this class has.
    pub capacity: usize,
    /// Buffers parked in the class right now.
    pub parked: usize,
    /// Most buffers the class will park.
    pub limit: usize,
}

/// Size-classed, bounded pool of `Vec<T>` buffers (see the module docs).
pub struct BufPool<T> {
    /// Indexed by class `k`; grown on first request for a class.
    classes: Vec<Class<T>>,
    parked: usize,
    parked_bytes: usize,
    misses: u64,
}

impl<T> Default for BufPool<T> {
    fn default() -> Self {
        Self {
            classes: Vec::new(),
            parked: 0,
            parked_bytes: 0,
            misses: 0,
        }
    }
}

impl<T> BufPool<T> {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A buffer with `capacity() >= len`. Its length and contents are
    /// whatever its last user left (empty when freshly allocated): callers
    /// `clear`/`resize`/`extend` it to `len`, which never reallocates.
    /// `len == 0` yields an unallocated vector the pool does not track.
    pub fn take(&mut self, len: usize) -> Vec<T> {
        if len == 0 {
            return Vec::new();
        }
        let class = len
            .checked_next_power_of_two()
            .expect("BufPool::take: length overflows usize")
            .trailing_zeros() as usize;
        if self.classes.len() <= class {
            self.classes.resize_with(class + 1, Class::default);
        }
        let c = &mut self.classes[class];
        c.live += 1;
        c.limit = c.limit.max(c.live);
        match c.free.pop() {
            Some(buf) => {
                self.parked -= 1;
                self.parked_bytes -= buf.capacity() * std::mem::size_of::<T>();
                buf
            }
            None => {
                self.misses += 1;
                Vec::with_capacity(1 << class)
            }
        }
    }

    /// Return a buffer handed out by [`BufPool::take`] in this cycle: it
    /// stops counting as live and is parked like an adopted one.
    pub fn put(&mut self, buf: Vec<T>) {
        if let Some(c) = buf
            .capacity()
            .checked_ilog2()
            .and_then(|k| self.classes.get_mut(k as usize))
        {
            c.live = c.live.saturating_sub(1);
        }
        self.adopt(buf);
    }

    /// Park a buffer whatever its origin — one allocated anywhere else, or
    /// any buffer at the end of a cycle ([`BufPool::end_cycle`] follows). It
    /// is kept while its class is under its bound and freed otherwise;
    /// zero-capacity vectors are always dropped. The live count is left
    /// alone: only buffers known to come from `take` may lower it.
    pub fn adopt(&mut self, buf: Vec<T>) {
        let cap = buf.capacity();
        let Some(c) = cap
            .checked_ilog2()
            .and_then(|k| self.classes.get_mut(k as usize))
        else {
            return;
        };
        if c.free.len() < c.limit {
            self.parked += 1;
            self.parked_bytes += cap * std::mem::size_of::<T>();
            c.free.push(buf);
        }
    }

    /// End a cycle: every buffer the owner handed out has been returned (or
    /// is gone for good), so nothing counts as live any more. Keeps a buffer
    /// that was dropped instead of returned from inflating later bounds.
    pub fn end_cycle(&mut self) {
        for c in &mut self.classes {
            c.live = 0;
        }
    }

    /// Buffers parked right now.
    pub fn parked(&self) -> usize {
        self.parked
    }

    /// Bytes of capacity parked right now.
    pub fn parked_bytes(&self) -> usize {
        self.parked_bytes
    }

    /// Cumulative count of fresh allocations [`BufPool::take`] had to make.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Occupancy of every class the pool has served, smallest first.
    pub fn classes(&self) -> impl Iterator<Item = ClassStats> + '_ {
        self.classes.iter().enumerate().map(|(k, c)| ClassStats {
            capacity: 1 << k,
            parked: c.free.len(),
            limit: c.limit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_fits_and_put_files_by_floor_capacity() {
        let mut p = BufPool::<f32>::new();
        for len in [1usize, 2, 3, 4, 5, 63, 64, 65, 1000] {
            let v = p.take(len);
            assert!(v.capacity() >= len, "len {len} got {}", v.capacity());
            p.put(v);
        }
        let misses = p.misses();
        // Every class is warm: the same requests are all hits, and a hit from
        // a class always fits the largest length that maps to it.
        for len in [1usize, 2, 3, 4, 5, 63, 64, 65, 1000] {
            let v = p.take(len);
            assert!(v.capacity() >= len);
            p.put(v);
        }
        assert_eq!(p.misses(), misses);
        // A foreign buffer of capacity 100 lands in class 64 and serves a
        // request for 64, never one for 100.
        let mut q = BufPool::<f32>::new();
        drop(q.take(64)); // raises the class bound to 1
        q.end_cycle();
        q.adopt(Vec::with_capacity(100));
        assert_eq!(q.parked(), 1);
        assert!(q.take(64).capacity() >= 64);
        assert_eq!(q.parked(), 0);
    }

    #[test]
    fn zero_capacity_is_never_parked_and_zero_len_is_untracked() {
        let mut p = BufPool::<usize>::new();
        assert_eq!(p.take(0).capacity(), 0);
        assert_eq!(p.misses(), 0);
        p.put(Vec::new());
        p.adopt(Vec::new());
        assert_eq!(p.parked(), 0);
    }

    #[test]
    fn parking_is_bounded_by_the_live_high_water_mark() {
        let mut p = BufPool::<f32>::new();
        // Two live at once in class 16, then returned with three foreign ones.
        let (a, b) = (p.take(16), p.take(10));
        p.put(a);
        p.put(b);
        for _ in 0..3 {
            p.adopt(Vec::with_capacity(16));
        }
        p.end_cycle();
        assert_eq!(p.parked(), 2);
        assert_eq!(p.parked_bytes(), 2 * 16 * 4);
        // A class nothing was taken from adopts nothing.
        p.adopt(Vec::with_capacity(4096));
        assert_eq!(p.parked(), 2);
        let stats: Vec<ClassStats> = p.classes().filter(|c| c.limit > 0).collect();
        assert_eq!(
            stats,
            vec![ClassStats {
                capacity: 16,
                parked: 2,
                limit: 2
            }]
        );
    }

    #[test]
    fn an_adopted_buffer_does_not_hide_one_that_is_still_out() {
        let mut p = BufPool::<f32>::new();
        let a = p.take(16);
        // A foreign buffer arrives while `a` is out; the next take is the
        // second buffer live at once, and the bound must say so.
        p.adopt(Vec::with_capacity(16));
        let b = p.take(16);
        p.put(a);
        p.put(b);
        p.end_cycle();
        assert_eq!(p.classes().map(|c| c.limit).max(), Some(2));
        assert_eq!(p.parked(), 2);
        // The next cycle of the same shape is all hits.
        let misses = p.misses();
        let (a, b) = (p.take(16), p.take(16));
        p.put(a);
        p.put(b);
        assert_eq!(p.misses(), misses);
    }

    #[test]
    fn a_dropped_buffer_does_not_inflate_the_bound_across_cycles() {
        let mut p = BufPool::<f32>::new();
        for _ in 0..10 {
            drop(p.take(8)); // leaked: never put back
            p.end_cycle();
        }
        assert_eq!(p.classes().map(|c| c.limit).max(), Some(1));
    }
}

//! A shared pool of reusable differentiation tapes.
//!
//! Worker threads that each process a stream of samples check a [`Graph`]
//! out of the pool, record a step, and return it when the step is done.
//! [`TapePool::release`] resets the tape, which parks every buffer it holds in
//! the tape's own size-classed, bounded buffer pool (see
//! [`crate::bufpool`]); the next step on that tape — whichever thread picks
//! it up — takes its buffers from there. The contract the soak test
//! (`tests/tape_pool_soak.rs`) pins: each tape's pool grows to the working
//! set of the largest step it has run and no further, a request is a **miss**
//! (a fresh allocation, counted in [`TapePool::pool_misses`]) only when no
//! parked buffer of its capacity class exists, and once every shape of the
//! workload has been seen [`TapePool::pooled_bytes`] and the miss count stop
//! moving.

use crate::Graph;
use std::sync::Mutex;

/// Thread-safe free list of [`Graph`] tapes.
#[derive(Default)]
pub struct TapePool {
    slots: Mutex<Vec<Graph>>,
}

impl TapePool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Check out a tape (empty and ready to record), creating one if the
    /// pool is empty.
    pub fn acquire(&self) -> Graph {
        self.slots
            .lock()
            .expect("tape pool poisoned")
            .pop()
            .unwrap_or_default()
    }

    /// Return a tape to the pool for reuse. It is reset here rather than on
    /// the next [`TapePool::acquire`], so while it waits every buffer it
    /// retains sits in its own pool, where [`TapePool::pooled_bytes`] counts
    /// it. Returns that tape's [`Graph::pooled_bytes`] — its whole footprint
    /// now — for callers that keep a per-tape gauge.
    pub fn release(&self, mut g: Graph) -> usize {
        g.reset();
        let bytes = g.pooled_bytes();
        self.slots.lock().expect("tape pool poisoned").push(g);
        bytes
    }

    /// Number of parked tapes (observability for tests).
    pub fn parked(&self) -> usize {
        self.slots.lock().expect("tape pool poisoned").len()
    }

    /// Bytes the parked tapes hold in their buffer pools
    /// ([`Graph::pooled_bytes`] summed): the memory this pool retains.
    pub fn pooled_bytes(&self) -> usize {
        let slots = self.slots.lock().expect("tape pool poisoned");
        slots.iter().map(Graph::pooled_bytes).sum()
    }

    /// Fresh allocations the parked tapes' buffer pools have made so far
    /// ([`Graph::pool_misses`] summed).
    pub fn pool_misses(&self) -> u64 {
        let slots = self.slots.lock().expect("tape pool poisoned");
        slots.iter().map(Graph::pool_misses).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_tensor::Matrix;

    #[test]
    fn acquire_release_round_trip_retains_buffers() {
        let pool = TapePool::new();
        let mut g = pool.acquire();
        let x = g.param(Matrix::ones(4, 4));
        let y = g.square(x);
        let loss = g.mean(y);
        g.backward(loss);
        pool.release(g);
        assert_eq!(pool.parked(), 1);

        let g2 = pool.acquire();
        assert!(g2.is_empty(), "acquired tape must be reset");
        assert!(
            g2.pooled_buffers() > 0,
            "acquired tape must keep its buffers"
        );
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        let pool = TapePool::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..8 {
                        let mut g = pool.acquire();
                        let x = g.param(Matrix::ones(2, 2));
                        let loss = g.sum(x);
                        g.backward(loss);
                        pool.release(g);
                    }
                });
            }
        });
        assert!(pool.parked() >= 1);
    }
}

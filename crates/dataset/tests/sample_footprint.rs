//! What one scenario holds in memory, counted by the allocator: the live
//! bytes (allocated − freed, on this thread) a generated or parsed `Sample`
//! keeps once its constructor returns.
//!
//! `Routing` keeps the routed pairs and `TrafficMatrix` the nonzero rates,
//! so a sparse sample costs `O(active pairs)` however many nodes its
//! topology has. When both kept dense `n²` tables, the 2 000-node,
//! 64-pair sample below held 224 076 608 bytes generated and 234 975 808
//! read back from its 36 086 849-byte line (a 48-byte `Option<Path>` and an
//! 8-byte rate per ordered pair); it now holds 80 704 and 98 880. Dense
//! samples route every pair either way: the 4-byte key beside each entry
//! may cost them at most 5 % over the tables' 31 822 (NSFNET) and 102 760
//! (GEANT2) bytes; they hold 32 494 and 105 832.

use rn_dataset::{generate_sample, generate_sparse_sample, GeneratorConfig, Sample};
use rn_netgraph::generators::{isp_tiered, TierConfig};
use rn_netgraph::{topologies, Topology};
use rn_netsim::SimConfig;
use rn_tensor::Prng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread holds: allocated minus freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, keeping a per-thread live-byte count so tests
/// running in parallel in this binary do not see each other's blocks.
struct Counting;

fn note(delta: isize) {
    // `try_with`: the allocator also runs while a thread's locals are being
    // torn down.
    let _ = LIVE.try_with(|l| l.set(l.get() + delta));
}

fn size(layout: Layout) -> isize {
    isize::try_from(layout.size()).expect("a block smaller than isize::MAX")
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter touches only a const-initialised, destructor-free
// thread local, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note(size(layout));
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-size(layout));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note(size(layout));
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            note(
                isize::try_from(new_size).expect("a block smaller than isize::MAX") - size(layout),
            );
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `make` returns, and the bytes it still holds on this thread.
fn held<T>(make: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.with(Cell::get);
    let value = make();
    let bytes = LIVE.with(Cell::get) - before;
    (value, usize::try_from(bytes).expect("a sample holds bytes"))
}

fn config() -> GeneratorConfig {
    GeneratorConfig {
        sim: SimConfig {
            duration_s: 20.0,
            warmup_s: 4.0,
            ..SimConfig::default()
        },
        ..GeneratorConfig::default()
    }
}

fn assert_at_most(what: &str, bytes: usize, recorded: usize, slack: f64) {
    eprintln!("{what}: {bytes} B (recorded {recorded} B)");
    assert!(
        bytes as f64 <= slack * recorded as f64,
        "{what} holds {bytes} B, more than {slack} x the recorded {recorded} B"
    );
}

#[test]
fn a_sparse_sample_holds_its_pairs_not_its_topology() {
    let topo: Topology =
        isp_tiered(2000, &TierConfig::default(), &mut Prng::new(2000)).expect("isp_tiered(2000)");
    let (sample, generated) = held(|| generate_sparse_sample(&topo, &config(), 64, 11, 0));
    let line = serde_json::to_string(&sample).expect("infallible");
    let (parsed, read_back) = held(|| serde_json::from_str::<Sample>(&line).expect("its own line"));
    assert_eq!(parsed.routing.num_paths(), 64);
    assert_at_most(
        "isp_tiered(2000), 64 pairs, generated",
        generated,
        80_704,
        1.1,
    );
    assert_at_most(
        "isp_tiered(2000), 64 pairs, read back",
        read_back,
        98_880,
        1.1,
    );
}

#[test]
fn a_dense_sample_holds_what_its_table_did() {
    for (topo, table_bytes) in [
        (topologies::nsfnet_default(), 31_822),
        (topologies::geant2_default(), 102_760),
    ] {
        let (_, bytes) = held(|| generate_sample(&topo, &config(), 11, 0));
        assert_at_most(&topo.name, bytes, table_bytes, 1.05);
    }
}

//! Pins the memory discipline of the deterministic coloring pipeline:
//! per-node protocol state is `O(degree)`, and nothing a node holds is
//! sized by the number of rounds. The global Linial and Kuhn–Wattenhofer
//! schedules are shared or generated on the fly, never copied per node.
//!
//! A counting global allocator tracks the live heap and its high-water
//! mark. The peak of one `deterministic_delta_plus_one` run must stay
//! under a bound linear in `n + m`, and stretching the KW schedule
//! (more initial colors, same graph) must not raise the peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use congest_coloring::{deterministic_delta_plus_one, verify_coloring, KwReduction};
use congest_graph::{generators, Graph};
use congest_sim::{run_protocol, SimConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// System allocator wrapper that tracks live bytes and their peak.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: pure pass-through to `System` plus atomic byte counters;
// layout handling is exactly the system allocator's.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Heap high-water mark of `f`, in bytes above the live heap at entry.
/// Allocations by other threads can only raise it, and the checks below
/// leave far more slack than such stray allocations take.
fn peak_bytes_of(f: impl FnOnce()) -> usize {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    f();
    PEAK.load(Ordering::SeqCst) - base
}

/// Peak heap of a KW reduction from the id coloring, announced as a
/// `num_colors`-coloring; a larger `num_colors` means a longer schedule.
fn kw_peak(g: &Graph, num_colors: usize) -> (usize, usize) {
    let mut rounds = 0;
    let peak = peak_bytes_of(|| {
        let outcome = run_protocol(
            g,
            SimConfig::local(),
            |info| KwReduction::new(info.id.index(), num_colors),
            0,
        );
        assert!(outcome.completed);
        rounds = outcome.stats.rounds;
    });
    (peak, rounds)
}

// All checks live in ONE #[test]: the counters are process-wide, and a
// second test on a concurrent harness thread would allocate inside the
// measurement windows.
#[test]
fn coloring_peak_heap_is_linear_and_schedule_independent() {
    let n = 20_000;
    let mut rng = SmallRng::seed_from_u64(20);
    let g = generators::gnp_skip(n, 8.0 / n as f64, &mut rng);
    let m = g.num_edges();

    let peak = peak_bytes_of(|| {
        let run = deterministic_delta_plus_one(&g);
        verify_coloring(&g, &run.colors, g.max_degree() + 1).unwrap();
    });
    let bound = 512 * n + 128 * m;
    eprintln!("pipeline peak {peak} B, bound {bound} B (n = {n}, m = {m})");
    assert!(
        peak < bound,
        "pipeline peak heap {peak} B exceeds {bound} B for n = {n}, m = {m}"
    );

    let (short_peak, short_rounds) = kw_peak(&g, n);
    let (long_peak, long_rounds) = kw_peak(&g, n << 6);
    eprintln!(
        "KW peak {short_peak} B over {short_rounds} rounds, {long_peak} B over {long_rounds}"
    );
    assert!(
        long_rounds >= short_rounds + 100,
        "schedule must stretch: {short_rounds} vs {long_rounds} rounds"
    );
    assert!(
        long_peak <= short_peak + short_peak / 64,
        "KW peak heap grows with the schedule: {short_peak} B over {short_rounds} rounds \
         vs {long_peak} B over {long_rounds}"
    );
}

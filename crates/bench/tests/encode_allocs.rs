//! The image path's allocation budget, counted by a `#[global_allocator]`
//! that counts the calls each thread makes.
//!
//! The encoder writes every rank's stable chunk in one pass into one
//! buffer of the encode's own, and copies the image once into an exact
//! output buffer. So an encode makes the same number of allocations
//! whatever the rank count: the buffer, the output, and a handful of
//! per-image tables. Only the buffer's geometric growth — its
//! reallocations, counted apart — follows the image's size, one doubling
//! per doubling of it. A per-rank allocation anywhere on the path shows
//! as a count that grows with the world. The store's save is that
//! encoder, so the same holds for it. On the read side, a chain load
//! decodes every chunk where it lies in the stored bytes: it costs what
//! decoding the leaf's full image costs, plus a constant per ancestor,
//! however many chunks the ancestors carry.

use bench::{perturbed_checkpoint, synthetic_checkpoint};
use ckpt::{Checkpoint, CkptTier, TieredStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts every allocation and, apart, every reallocation of the calling
/// thread, then hands the call to the system allocator.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: the allocator runs during thread teardown too.
    let _ = counter.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCS);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCS);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(&REALLOCS);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `f`'s result and the allocations this thread made while it ran,
/// reallocations included.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, allocs, reallocs) = allocations_and_reallocations(f);
    (out, allocs + reallocs)
}

/// `f`'s result, and the allocations and reallocations this thread made
/// while it ran.
fn allocations_and_reallocations<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, r0) = (ALLOCS.get(), REALLOCS.get());
    let out = f();
    (out, ALLOCS.get() - a0, REALLOCS.get() - r0)
}

/// `(allocations, reallocations)` of one `to_bytes` and of one serial
/// full save into a fresh store, on the `n_ranks`-rank synthetic image.
fn encode_allocations(n_ranks: usize) -> [(u64, u64); 2] {
    let image = Arc::new(synthetic_checkpoint(n_ranks, 0xA110C));
    let (bytes, a, r) = allocations_and_reallocations(|| image.to_bytes());
    let store = TieredStore::default();
    let (receipt, sa, sr) = allocations_and_reallocations(|| {
        store.save(CkptTier::Memory, Arc::clone(&image), false, 1)
    });
    assert_eq!(receipt.bytes, bytes.len(), "a full save writes the image");
    [(a, r), (sa, sr)]
}

#[test]
fn encode_allocations_do_not_grow_with_ranks() {
    let small = encode_allocations(256);
    let large = encode_allocations(1024);
    for (what, s, l) in [
        ("to_bytes", small[0], large[0]),
        ("save", small[1], large[1]),
    ] {
        assert_eq!(
            s.0, l.0,
            "{what} allocations at 256 vs 1024 ranks: a per-rank allocation"
        );
        assert!(
            l.0 < 64,
            "{what}: {} allocations for one 1024-rank image",
            l.0
        );
        // Four times the ranks, four times the bytes: two more doublings
        // of the one growing buffer, give or take the one the sizes
        // straddle.
        assert!(
            l.1 <= s.1 + 3,
            "{what} reallocations at 256 vs 1024 ranks: {} vs {}; more than the buffer's doublings",
            s.1,
            l.1
        );
    }
}

/// Allocations one decoded ancestor may add to a chain load: its head's
/// tables and lists, and its place in the load's chunk index.
const PER_ANCESTOR: u64 = 32;

#[test]
fn a_chain_load_allocates_what_the_leafs_full_decode_does() {
    let g0 = Arc::new(synthetic_checkpoint(1024, 0xC4A1));
    let g1 = Arc::new(perturbed_checkpoint(&g0, 7));
    let g2 = Arc::new(perturbed_checkpoint(&g1, 5));
    let store = TieredStore::default();
    store.save(CkptTier::Lustre, g0, false, 1);
    store.save(CkptTier::Partner, g1, true, 1);
    let leaf = store.save(CkptTier::Memory, Arc::clone(&g2), true, 1);
    assert_eq!(leaf.delta_parent, Some(1), "a depth-3 chain");

    let full = g2.to_bytes();
    let (decoded, decode) = allocations(|| Checkpoint::from_bytes(&full));
    assert_eq!(decoded.as_ref(), Ok(&*g2));
    let (loaded, load) = allocations(|| store.load(leaf.generation));
    assert_eq!(loaded.as_ref(), Ok(&*g2));
    assert!(
        load <= decode + 2 * PER_ANCESTOR,
        "chain load made {load} allocations, the leaf's full decode {decode}"
    );
}

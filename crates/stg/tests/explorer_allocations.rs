//! The marked-graph explorer allocates only the graph it returns. Its working
//! buffers live in a per-thread scratch that survives between calls, so
//! once a thread has explored a graph, exploring a graph of that size
//! again makes exactly the four allocations of the returned
//! [`StateGraph`]: its states, its flat edge array, its per-state edge
//! spans and its label table. A global allocator counts the calls per
//! thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use si_stg::{parse_astg, MgStg, StateGraph};

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count() {
        // `try_with`: the allocator also runs while a thread is torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// Two concurrent outputs between a fork and a join, twice per cycle:
/// 10 states.
fn concurrent_mg() -> MgStg {
    let stg = parse_astg(
        "\
.model diamonds
.inputs a
.outputs b c d
.graph
a+ b+ c+
b+ d+
c+ d+
d+ a-
a- b- c-
b- d-
c- d-
d- a+
.marking { <d-,a+> }
.end
",
    )
    .expect("valid");
    MgStg::from_stg_mg(&stg).expect("marked graph")
}

#[test]
fn a_warm_exploration_allocates_only_the_returned_graph() {
    let mg = concurrent_mg();
    let (cold, _) = allocations(|| StateGraph::of_mg_interned(&mg, 1000).expect("consistent"));
    assert_eq!(cold.state_count(), 10);
    for _ in 0..3 {
        let (warm, count) =
            allocations(|| StateGraph::of_mg_interned(&mg, 1000).expect("consistent"));
        assert_eq!(warm, cold);
        assert_eq!(
            count, 4,
            "states, edges, spans and labels are the only allocations"
        );
    }
}

//! Placement lookups run per request on every replica and client, so
//! the ones that do not return a set must not touch the heap. A counting
//! global allocator (per thread, so the harness's own threads do not
//! leak into the count) holds them to it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pcsi_core::ObjectId;
use pcsi_net::Topology;
use pcsi_store::Placement;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a plain thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn set_free_lookups_do_not_allocate() {
    // Racks >= replicas (the rack-distinct pass alone), racks < replicas
    // (the fill pass too), and a pinned object mid-migration.
    for (racks, per_rack, n_replicas) in [(4, 4, 3), (2, 3, 5), (1, 4, 3)] {
        let topo = Topology::uniform(racks, per_rack);
        let mut nodes = topo.node_ids();
        let joiner = nodes.pop().expect("non-empty topology");
        let p = Placement::new(&topo, nodes.clone(), n_replicas);
        let ids: Vec<ObjectId> = (0..2_000).map(|i| ObjectId::from_parts(9, i)).collect();
        let pinned = p.begin_join(&topo, joiner, &ids);
        assert!(!pinned.is_empty(), "join relocated nothing");
        let mut acc = 0u32;
        let n = allocs_during(|| {
            for &id in &ids {
                acc ^= p.primary(id).0;
                acc ^= u32::from(p.is_replica(id, nodes[0]));
                acc ^= p.closest_replica(&topo, id, joiner).0;
            }
        });
        assert_eq!(n, 0, "{racks}x{per_rack} r={n_replicas} (acc {acc})");
        // The counter does see an allocation when there is one.
        assert_eq!(allocs_during(|| drop(p.replicas(ids[0]))), 1);
    }
}

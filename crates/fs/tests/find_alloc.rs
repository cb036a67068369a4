//! `Directory::find` runs once per path segment of every lookup, so it
//! must not touch the heap: no map, no `String`, on a hit, on a miss
//! and past a name that repeats. A counting global allocator (per
//! thread, so the harness's own threads do not leak into the count)
//! holds it to it.

use pcsi_core::{ObjectId, Rights};
use pcsi_fs::{DirEntry, Directory};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocs_during;

#[test]
fn find_does_not_allocate() {
    let mut dir = Directory::new();
    let names: Vec<String> = (0..64).map(|i| format!("object-{i:04}")).collect();
    for (i, name) in names.iter().enumerate() {
        let entry = DirEntry::new(ObjectId::from_parts(9, i as u64 + 1), Rights::READ);
        dir.link(name, entry).expect("a valid name");
    }
    let wire = dir.encode();
    let mut hits = 0;
    let n = allocs_during(|| {
        for name in &names {
            hits += usize::from(
                Directory::find(&wire, name)
                    .expect("a whole frame")
                    .is_some(),
            );
        }
        hits += usize::from(
            Directory::find(&wire, "absent")
                .expect("a whole frame")
                .is_some(),
        );
    });
    assert_eq!((n, hits), (0, names.len()));
    // The counter does see what `find` stands in for: a map and a
    // `String` per entry.
    let by_map = allocs_during(|| drop(Directory::decode(&wire)));
    assert!(by_map > names.len() as u64, "{by_map}");
}

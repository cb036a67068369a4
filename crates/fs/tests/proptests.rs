//! Property-based tests for the file layer.

use proptest::prelude::*;

use pcsi_core::{ObjectId, Rights};
use pcsi_fs::{path, DirEntry, Directory, UnionDir};

fn arb_name() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9_.-]{1,16}".prop_filter("not dot names", |s| s != "." && s != "..")
}

fn arb_entry() -> impl Strategy<Value = DirEntry> {
    (any::<u64>(), any::<u8>(), any::<bool>()).prop_map(|(n, bits, whiteout)| {
        if whiteout {
            DirEntry::whiteout()
        } else {
            DirEntry::new(
                ObjectId::from_parts(9, n % 1000 + 1),
                Rights::from_bits(bits),
            )
        }
    })
}

/// An encoded directory as anyone could have written it: names drawn
/// from a small pool so they repeat, names that are not UTF-8, then
/// possibly cut short or followed by stray bytes.
fn arb_frame() -> impl Strategy<Value = Vec<u8>> {
    use pcsi_proto::binary::{Prefix, Writer};

    let pooled = || "[ab]{1,2}".prop_map(String::into_bytes);
    let name = prop_oneof![
        pooled(),
        pooled(),
        pooled(),
        pooled(),
        pooled(),
        arb_name().prop_map(String::into_bytes),
        Just(Vec::new()),
        Just(vec![0xC3, 0x28]),
    ];
    let entries = proptest::collection::vec((name, arb_entry()), 0..8);
    (entries, 0usize..8, any::<u16>()).prop_map(|(entries, damage, at)| {
        let mut w = Writer::with_capacity(64);
        w.count(Prefix::U32, entries.len());
        for (name, e) in &entries {
            w.bytes(Prefix::U16, name);
            w.u128(e.id.as_u128());
            w.u8(e.rights.bits());
            w.u8(u8::from(e.whiteout));
        }
        let mut frame = w.finish().to_vec();
        match damage {
            0 => frame.truncate(at as usize % (frame.len() + 1)),
            1 => frame.extend_from_slice(&at.to_le_bytes()),
            _ => {}
        }
        frame
    })
}

fn arb_dir() -> impl Strategy<Value = Directory> {
    proptest::collection::btree_map(arb_name(), arb_entry(), 0..12).prop_map(|m| {
        let mut d = Directory::new();
        for (name, e) in m {
            d.relink(&name, e).unwrap();
        }
        d
    })
}

proptest! {
    #[test]
    fn directory_encode_decode_roundtrip(d in arb_dir()) {
        let back = Directory::decode(&d.encode()).unwrap();
        prop_assert_eq!(back, d);
    }

    #[test]
    fn directory_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Directory::decode(&bytes);
    }

    /// `find` reads one entry off the frame; `decode` + `get` is what it
    /// stands in for. Same entry, same refusal, on frames whole, cut
    /// short, overlong, with repeated names and with bad UTF-8.
    #[test]
    fn find_is_decode_then_get(
        frame in arb_frame(),
        name in prop_oneof!["[ab]{1,2}", "[ab]{1,2}", "[ab]{1,2}", arb_name()],
    ) {
        let by_map = Directory::decode(&frame).map(|d| d.get(&name).copied());
        prop_assert_eq!(Directory::find(&frame, &name), by_map);
    }

    #[test]
    fn link_then_unlink_is_identity(d in arb_dir(), name in arb_name(), e in arb_entry()) {
        prop_assume!(d.get(&name).is_none());
        let mut d2 = d.clone();
        d2.link(&name, e).unwrap();
        prop_assert_eq!(d2.get(&name), Some(&e));
        d2.unlink(&name).unwrap();
        prop_assert_eq!(d2, d);
    }

    /// Path split is idempotent under join: split(join(split(p))) ==
    /// split(p), and no output segment is ever empty, ".", or "..".
    #[test]
    fn path_split_normalizes(p in "[a-z0-9/._]{0,48}") {
        if let Ok(segs) = path::split(&p) {
            for s in &segs {
                prop_assert!(!s.is_empty() && s != "." && s != "..");
                prop_assert!(!s.contains('/'));
            }
            let rejoined = path::join(&segs);
            prop_assert_eq!(path::split(&rejoined).unwrap(), segs);
        }
    }

    /// Union lookup equals "first non-whiteout entry top-down".
    #[test]
    fn union_lookup_respects_layer_order(
        layers in proptest::collection::vec(arb_dir(), 1..4),
        name in arb_name(),
    ) {
        let u = UnionDir::new(layers.clone());
        let expected = layers.iter().find_map(|l| l.get(&name)).and_then(|e| {
            if e.whiteout { None } else { Some(*e) }
        });
        prop_assert_eq!(u.get(&name).copied(), expected);
    }

    /// Union listing: every visible name resolves, and no hidden name
    /// appears.
    #[test]
    fn union_listing_is_consistent(layers in proptest::collection::vec(arb_dir(), 1..4)) {
        let u = UnionDir::new(layers);
        for name in u.names() {
            prop_assert!(u.get(&name).is_some(), "listed {name} does not resolve");
        }
    }

    /// Unlink through a union hides the name without touching lower
    /// layers, and relinking resurrects it.
    #[test]
    fn union_unlink_then_link(base in arb_dir(), name in arb_name()) {
        let mut u = UnionDir::over(base.clone());
        let was_visible = u.get(&name).is_some();
        if was_visible {
            u.unlink(&name).unwrap();
            prop_assert!(u.get(&name).is_none());
        }
        let e = DirEntry::new(ObjectId::from_parts(8, 1), Rights::READ);
        u.link(&name, e).unwrap();
        prop_assert_eq!(u.get(&name), Some(&e));
        // The base layer never changed.
        prop_assert_eq!(u.into_top().get(&name).is_some(), true);
        prop_assert_eq!(base.get(&name).map(|x| x.whiteout), base.get(&name).map(|x| x.whiteout));
    }
}

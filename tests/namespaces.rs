//! Cross-crate integration: namespaces, paths, and capability delegation.
//!
//! §3.2: no global namespace; each function gets a directory as its root;
//! names convey attenuated rights; union layering composes namespaces.

use bytes::Bytes;
use pcsi_cloud::{Cloud, CloudBuilder};
use pcsi_core::api::CreateOptions;
use pcsi_core::{CloudInterface, Consistency, Mutability, PcsiError, Reference, Rights};
use pcsi_fs::{DirEntry, Directory, UnionDir};
use pcsi_net::NodeId;
use pcsi_sim::Sim;
use proptest::prelude::*;

fn with_cloud<T: 'static>(
    seed: u64,
    f: impl FnOnce(pcsi_cloud::Cloud) -> std::pin::Pin<Box<dyn std::future::Future<Output = T>>>
        + 'static,
) -> T {
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    sim.block_on(async move {
        let cloud = CloudBuilder::new()
            .deterministic_network()
            .metrics(true)
            .build(&h);
        f(cloud).await
    })
}

/// Hides `names` in the directory `dir`. The kernel link API has no
/// whiteout verb: platform layers get theirs by editing the stored
/// directory, a regular stored object underneath.
async fn write_whiteouts(cloud: &Cloud, dir: &Reference, names: &[&str]) {
    let c = cloud.kernel.client(NodeId(0), "t");
    let bytes = c.read(dir, 0, u64::MAX).await.unwrap();
    let mut d = Directory::decode(&bytes).unwrap();
    for name in names {
        d.relink(name, DirEntry::whiteout()).unwrap();
    }
    let store = cloud.store.client(NodeId(0));
    store
        .put(
            dir.id(),
            d.encode(),
            Mutability::Mutable,
            Consistency::Linearizable,
        )
        .await
        .unwrap();
}

#[test]
fn nested_directories_resolve_paths() {
    with_cloud(31, |cloud| {
        Box::pin(async move {
            let c = cloud.kernel.client(NodeId(0), "t");
            let root = c.create(CreateOptions::directory()).await.unwrap();
            let models = c.create(CreateOptions::directory()).await.unwrap();
            let weights = c.create(CreateOptions::immutable(&b"W"[..])).await.unwrap();

            c.link(&root, "models", &models).await.unwrap();
            c.link(&models, "resnet", &weights).await.unwrap();

            let found = c.lookup(&root, "models/resnet").await.unwrap();
            assert_eq!(found.id(), weights.id());
            assert_eq!(&c.read(&found, 0, 10).await.unwrap()[..], b"W");

            // Normalization quirks resolve identically.
            assert_eq!(
                c.lookup(&root, "./models//resnet/").await.unwrap().id(),
                weights.id()
            );
            // Listing.
            assert_eq!(c.list(&root).await.unwrap(), vec!["models"]);
            // Empty path resolves to the directory itself.
            assert_eq!(c.lookup(&root, "").await.unwrap().id(), root.id());
        })
    });
}

#[test]
fn dotdot_is_rejected_no_upward_escape() {
    with_cloud(32, |cloud| {
        Box::pin(async move {
            let c = cloud.kernel.client(NodeId(0), "t");
            let root = c.create(CreateOptions::directory()).await.unwrap();
            let err = c.lookup(&root, "../secrets").await.unwrap_err();
            assert!(matches!(err, PcsiError::BadPayload(_)), "{err:?}");
        })
    });
}

#[test]
fn names_convey_attenuated_rights() {
    with_cloud(33, |cloud| {
        Box::pin(async move {
            let c = cloud.kernel.client(NodeId(0), "t");
            let root = c.create(CreateOptions::directory()).await.unwrap();
            let data = c
                .create(CreateOptions::regular().with_initial(&b"payload"[..]))
                .await
                .unwrap();
            // Publish read-only: the directory entry records attenuated
            // rights (GRANT on the full ref is needed to link at all).
            let read_only = data.attenuate(Rights::READ | Rights::GRANT).unwrap();
            c.link(&root, "shared", &read_only).await.unwrap();

            let resolved = c.lookup(&root, "shared").await.unwrap();
            assert!(resolved.rights().contains(Rights::READ));
            assert!(!resolved.rights().contains(Rights::WRITE));
            assert!(c.read(&resolved, 0, 7).await.is_ok());
            assert!(matches!(
                c.write(&resolved, 0, Bytes::from_static(b"X")).await,
                Err(PcsiError::AccessDenied { .. })
            ));
        })
    });
}

#[test]
fn linking_requires_grant_on_target() {
    with_cloud(34, |cloud| {
        Box::pin(async move {
            let c = cloud.kernel.client(NodeId(0), "t");
            let root = c.create(CreateOptions::directory()).await.unwrap();
            let data = c.create(CreateOptions::regular()).await.unwrap();
            let no_grant = data.attenuate(Rights::READ | Rights::WRITE).unwrap();
            assert!(matches!(
                c.link(&root, "leak", &no_grant).await,
                Err(PcsiError::AccessDenied { .. })
            ));
        })
    });
}

#[test]
fn unlink_and_duplicate_names() {
    with_cloud(35, |cloud| {
        Box::pin(async move {
            let c = cloud.kernel.client(NodeId(0), "t");
            let root = c.create(CreateOptions::directory()).await.unwrap();
            let a = c.create(CreateOptions::regular()).await.unwrap();
            let b = c.create(CreateOptions::regular()).await.unwrap();
            c.link(&root, "x", &a).await.unwrap();
            assert!(matches!(
                c.link(&root, "x", &b).await,
                Err(PcsiError::AlreadyExists(_))
            ));
            c.unlink(&root, "x").await.unwrap();
            c.link(&root, "x", &b).await.unwrap();
            assert_eq!(c.lookup(&root, "x").await.unwrap().id(), b.id());
            assert!(matches!(
                c.unlink(&root, "ghost").await,
                Err(PcsiError::NameNotFound(_))
            ));
        })
    });
}

#[test]
fn two_tenants_have_disjoint_roots() {
    with_cloud(36, |cloud| {
        Box::pin(async move {
            let alice = cloud.kernel.client(NodeId(0), "alice");
            let bob = cloud.kernel.client(NodeId(1), "bob");
            let alice_root = alice.create(CreateOptions::directory()).await.unwrap();
            let bob_root = bob.create(CreateOptions::directory()).await.unwrap();
            let secret = alice
                .create(CreateOptions::regular().with_initial(&b"alice's"[..]))
                .await
                .unwrap();
            alice.link(&alice_root, "secret", &secret).await.unwrap();

            // Bob's root simply does not contain Alice's names — there is
            // no global path that reaches them.
            assert!(matches!(
                bob.lookup(&bob_root, "secret").await,
                Err(PcsiError::NameNotFound(_))
            ));
            // And without a reference, Bob has no way to name the object
            // at all (ids are unguessable; the type system would demand a
            // Reference Bob cannot mint with the right generation).
            assert!(bob.list(&bob_root).await.unwrap().is_empty());
        })
    });
}

#[test]
fn union_namespace_over_shared_base_image() {
    // The Docker-layer pattern: a shared read-only base namespace with a
    // per-function writable overlay, exercised against kernel-stored
    // directories.
    with_cloud(37, |cloud| {
        Box::pin(async move {
            let c = cloud.kernel.client(NodeId(0), "t");

            // Base layer published by the platform.
            let base_dir = c.create(CreateOptions::directory()).await.unwrap();
            let libc = c
                .create(CreateOptions::immutable(&b"libc-v1"[..]))
                .await
                .unwrap();
            let config = c
                .create(CreateOptions::immutable(&b"defaults"[..]))
                .await
                .unwrap();
            c.link(&base_dir, "libc", &libc).await.unwrap();
            c.link(&base_dir, "config", &config).await.unwrap();

            // Load both layers and compose them locally.
            let base_bytes = c.read(&base_dir, 0, u64::MAX).await.unwrap();
            let base = Directory::decode(&base_bytes).unwrap();
            let mut ns = UnionDir::over(base);

            // The function overrides config and adds scratch space.
            let my_config = c
                .create(CreateOptions::immutable(&b"tuned"[..]))
                .await
                .unwrap();
            ns.unlink("config").unwrap();
            ns.link("config", DirEntry::new(my_config.id(), Rights::READ))
                .unwrap();

            assert_eq!(ns.names(), vec!["config", "libc"]);
            assert_eq!(ns.get("config").unwrap().id, my_config.id());
            assert_eq!(ns.get("libc").unwrap().id, libc.id());

            // Persist the overlay as its own directory object; the base
            // object is untouched (shared by other tenants).
            let overlay = c.create(CreateOptions::directory()).await.unwrap();
            let top = ns.into_top();
            for (name, entry) in top.iter() {
                let target = Reference::mint(entry.id, Rights::ALL, 0);
                if !entry.whiteout {
                    c.link(&overlay, name, &target).await.unwrap();
                }
            }
            let names = c.list(&overlay).await.unwrap();
            assert_eq!(names, vec!["config"]);
            let base_still = c.lookup(&base_dir, "config").await.unwrap();
            assert_eq!(base_still.id(), config.id());
        })
    });
}

#[test]
fn kernel_union_lookup_layers_namespaces() {
    with_cloud(39, |cloud| {
        Box::pin(async move {
            let c = cloud.kernel.client(NodeId(0), "t");
            // Base layer: lib + config. Overlay: overrides config,
            // whiteouts lib, adds scratch.
            let base = c.create(CreateOptions::directory()).await.unwrap();
            let lib = c
                .create(CreateOptions::immutable(&b"libc"[..]))
                .await
                .unwrap();
            let cfg_v1 = c
                .create(CreateOptions::immutable(&b"v1"[..]))
                .await
                .unwrap();
            c.link(&base, "lib", &lib).await.unwrap();
            c.link(&base, "config", &cfg_v1).await.unwrap();

            let overlay = c.create(CreateOptions::directory()).await.unwrap();
            let cfg_v2 = c
                .create(CreateOptions::immutable(&b"v2"[..]))
                .await
                .unwrap();
            c.link(&overlay, "config", &cfg_v2).await.unwrap();
            write_whiteouts(&cloud, &overlay, &["lib"]).await;

            // Overlay wins for config, hides lib, base serves the rest.
            let got = c
                .lookup_union(&[overlay.clone(), base.clone()], "config")
                .await
                .unwrap();
            assert_eq!(got.id(), cfg_v2.id());
            assert!(matches!(
                c.lookup_union(&[overlay.clone(), base.clone()], "lib")
                    .await,
                Err(PcsiError::NameNotFound(_))
            ));
            // Base alone still sees both.
            assert_eq!(
                c.lookup_union(std::slice::from_ref(&base), "lib")
                    .await
                    .unwrap()
                    .id(),
                lib.id()
            );
            // Empty layer list is rejected.
            assert!(c.lookup_union(&[], "x").await.is_err());

            // A union lookup is a `lookup` op like any other: all four
            // above were counted, the two that failed as errors.
            let count = |family| {
                let metrics = cloud.metrics.as_ref().unwrap();
                let series = metrics.find_counter(family, &[("op", "lookup")]);
                series.map(|c| c.get())
            };
            assert_eq!(count("kernel.ops"), Some(4));
            assert_eq!(count("kernel.errors"), Some(2));
        })
    });
}

/// The names the differential test links and looks up.
const NAMES: [&str; 5] = ["bin", "etc", "lib", "tmp", "var"];

/// What one layer holds under one name.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Absent,
    Entry,
    Whiteout,
}

/// A stack of 1–4 layers, topmost first: one [`Slot`] per name of
/// [`NAMES`] per layer, so shadowing and whiteouts at every depth occur.
fn arb_stack() -> impl Strategy<Value = Vec<Vec<Slot>>> {
    let slot = prop_oneof![Just(Slot::Absent), Just(Slot::Entry), Just(Slot::Whiteout)];
    let layer = proptest::collection::vec(slot, NAMES.len()..NAMES.len() + 1);
    proptest::collection::vec(layer, 1..5)
}

proptest! {
    /// The kernel's resolver against `pcsi_fs::UnionDir`, §3.2's union
    /// semantics as a pure data structure: over the same layers, every
    /// name resolves to the object the model names, and is
    /// `NameNotFound` exactly where the model has nothing visible.
    #[test]
    fn kernel_union_lookup_agrees_with_the_union_model(stack in arb_stack()) {
        let verdicts = with_cloud(40, |cloud| {
            Box::pin(async move {
                let c = cloud.kernel.client(NodeId(0), "t");
                let mut layers = Vec::new();
                let mut model = Vec::new();
                for slots in &stack {
                    let dir = c.create(CreateOptions::directory()).await.unwrap();
                    let mut expect = Directory::new();
                    let mut hidden = Vec::new();
                    for (name, slot) in NAMES.iter().zip(slots) {
                        match slot {
                            Slot::Absent => {}
                            Slot::Entry => {
                                let target = c.create(CreateOptions::regular()).await.unwrap();
                                c.link(&dir, name, &target).await.unwrap();
                                let entry = DirEntry::new(target.id(), target.rights());
                                expect.link(name, entry).unwrap();
                            }
                            Slot::Whiteout => {
                                hidden.push(*name);
                                expect.relink(name, DirEntry::whiteout()).unwrap();
                            }
                        }
                    }
                    write_whiteouts(&cloud, &dir, &hidden).await;
                    layers.push(dir);
                    model.push(expect);
                }
                let model = UnionDir::new(model);
                let mut verdicts = Vec::new();
                for name in NAMES {
                    let got = c.lookup_union(&layers, name).await;
                    verdicts.push((name, got, model.get(name).map(|e| e.id)));
                }
                verdicts
            })
        });
        for (name, got, expected) in verdicts {
            match (got, expected) {
                (Ok(r), Some(id)) => prop_assert_eq!(r.id(), id, "{}", name),
                (Err(PcsiError::NameNotFound(n)), None) => prop_assert_eq!(n, name),
                (got, expected) => prop_assert!(false, "{name}: {got:?}, model {expected:?}"),
            }
        }
    }
}

#[test]
fn deep_paths_scale_and_stay_correct() {
    with_cloud(38, |cloud| {
        Box::pin(async move {
            let c = cloud.kernel.client(NodeId(0), "t");
            let root = c.create(CreateOptions::directory()).await.unwrap();
            let mut cur = root.clone();
            let mut path = String::new();
            for i in 0..16 {
                let next = c.create(CreateOptions::directory()).await.unwrap();
                let name = format!("d{i}");
                c.link(&cur, &name, &next).await.unwrap();
                if !path.is_empty() {
                    path.push('/');
                }
                path.push_str(&name);
                cur = next;
            }
            let leaf = c
                .create(CreateOptions::regular().with_initial(&b"deep"[..]))
                .await
                .unwrap();
            c.link(&cur, "leaf", &leaf).await.unwrap();
            path.push_str("/leaf");
            let found = c.lookup(&root, &path).await.unwrap();
            assert_eq!(&c.read(&found, 0, 10).await.unwrap()[..], b"deep");
        })
    });
}

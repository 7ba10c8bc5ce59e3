//! Fault-injection and warm-start integration tests for the persistent
//! artifact store.
//!
//! The store's contract: a warm run is bit-identical to a cold run, a
//! damaged artifact is never trusted (evict, warn, regenerate — never
//! panic, never silently wrong), and concurrent writers leave exactly one
//! valid artifact with no torn reads.

use replay_sim::{simulate, ConfigKind, SimConfig, TraceStore};
use replay_store::Store;
use replay_trace::workloads;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory for a private store.
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "replay-it-store-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The single artifact file in a store directory.
fn sole_artifact(store: &Store) -> PathBuf {
    let mut files: Vec<PathBuf> = std::fs::read_dir(store.root())
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "expected exactly one artifact: {files:?}");
    files.pop().unwrap()
}

/// Truncation at every prefix length, a bit flip in every byte, and a
/// schema-version bump each make the reader evict the artifact and let the
/// caller regenerate it. No corruption is ever served, none panics.
#[test]
fn corrupt_artifacts_are_evicted_and_regenerate() {
    let store = Store::open(scratch("faults")).unwrap();
    let payload: Vec<u8> = (0..2048u32).map(|i| (i * 7) as u8).collect();
    assert!(store.save("trace", 0xfeed, &payload));
    let path = sole_artifact(&store);
    let pristine = std::fs::read(&path).unwrap();
    let mut expected_evictions = 0;

    let mut corruptions: Vec<Vec<u8>> = Vec::new();
    // Truncations, including an empty file and a header-only file.
    for cut in [0, 1, 17, 39, 40, pristine.len() - 1] {
        corruptions.push(pristine[..cut].to_vec());
    }
    // One flipped bit, everywhere from magic to final payload byte.
    for byte in 0..pristine.len() {
        let mut forged = pristine.clone();
        forged[byte] ^= 0x10;
        corruptions.push(forged);
    }
    // A forged future schema version (header bytes 4..8).
    let mut future = pristine.clone();
    future[4] = 0xff;
    corruptions.push(future);

    for (i, corrupt) in corruptions.iter().enumerate() {
        std::fs::write(&path, corrupt).unwrap();
        assert_eq!(
            store.load("trace", 0xfeed),
            None,
            "corruption #{i} must not be served"
        );
        expected_evictions += 1;
        assert_eq!(store.corrupt_evictions(), expected_evictions);
        assert!(!path.exists(), "corruption #{i} must be evicted from disk");

        // Regeneration restores byte-identical service.
        assert!(store.save("trace", 0xfeed, &payload));
        assert_eq!(store.load("trace", 0xfeed).as_deref(), Some(&payload[..]));
    }
}

/// A payload readable under the wrong class or key is a forgery; the
/// reader must reject and evict it.
#[test]
fn class_and_key_confusion_is_rejected() {
    let store = Store::open(scratch("confusion")).unwrap();
    assert!(store.save("trace", 1, b"trace payload"));
    let path = sole_artifact(&store);
    let bytes = std::fs::read(&path).unwrap();

    // The same bytes filed under a different key: key echo mismatch.
    std::fs::remove_file(&path).unwrap();
    let forged = store.root().join("trace-0000000000000002.rpa");
    std::fs::write(&forged, &bytes).unwrap();
    assert_eq!(store.load("trace", 2), None);
    assert!(!forged.exists());

    // The same bytes filed under a different class: class digest mismatch.
    let forged = store.root().join("frames-0000000000000001.rpa");
    std::fs::write(&forged, &bytes).unwrap();
    assert_eq!(store.load("frames", 1), None);
    assert_eq!(store.corrupt_evictions(), 2);
}

/// Racing writers on one key: readers see either nothing or one writer's
/// complete payload (the checksum catches torn writes), and exactly one
/// artifact file survives with no temp-file litter.
#[test]
fn concurrent_writers_leave_one_untorn_artifact() {
    let store = Store::open(scratch("race")).unwrap();
    const WRITERS: usize = 8;
    const ROUNDS: usize = 20;
    let payloads: Vec<Vec<u8>> = (0..WRITERS)
        .map(|w| vec![w as u8; 4096 + 991 * w])
        .collect();

    std::thread::scope(|s| {
        for p in &payloads {
            s.spawn(|| {
                for _ in 0..ROUNDS {
                    assert!(store.save("frames", 77, p));
                }
            });
        }
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..4 * ROUNDS {
                    if let Some(seen) = store.load("frames", 77) {
                        assert!(
                            payloads.contains(&seen),
                            "torn read: {} bytes of {:?}...",
                            seen.len(),
                            &seen[..8.min(seen.len())]
                        );
                    }
                }
            });
        }
    });

    assert_eq!(store.corrupt_evictions(), 0, "no artifact ever looked torn");
    let survivor = sole_artifact(&store);
    assert!(
        survivor.to_string_lossy().ends_with(".rpa"),
        "no temp litter"
    );
    let last = store
        .load("frames", 77)
        .expect("artifact survives the race");
    assert!(payloads.contains(&last));
}

/// The number of files in a store directory.
fn file_count(store: &Store) -> usize {
    std::fs::read_dir(store.root()).unwrap().count()
}

/// The end-to-end warm-start contract through the process-global store:
/// a trace read warm from its artifact simulates bit-identically to the
/// cold synthesis (including under concurrent warm replays), simulation
/// itself neither reads nor writes the store, and corrupting every cached
/// artifact makes the trace store evict and regenerate — still
/// bit-identically.
///
/// This is the only test allowed to touch [`Store::global`]; everything it
/// checks happens sequentially inside one test body so no other test can
/// race the shared directory.
#[test]
fn warm_start_is_bit_identical_and_corruption_tolerant() {
    let dir = scratch("global");
    assert!(
        Store::configure(Some(dir.clone())),
        "global store must be configured before first use"
    );
    let store = Store::global().expect("global store enabled");
    let crafty = workloads::by_name("crafty").unwrap();
    // A fresh trace store has an empty memory layer, so every segment
    // request goes to the disk.
    let segment = || TraceStore::with_disk(store).segment(&crafty, 0, 4_000);
    let cfg = SimConfig::new(ConfigKind::ReplayOpt).without_verify();

    let cold_trace = segment();
    assert!(store.writes() > 0, "cold synthesis persists the trace");

    // An RPO simulation is a pure function of its inputs: no store I/O.
    let counters = |s: &Store| (s.hits(), s.misses(), s.writes());
    let (before, files_before) = (counters(store), file_count(store));
    let cold = simulate(&cold_trace, &cfg);
    assert_eq!(counters(store), before, "simulate touches no artifact");
    assert_eq!(file_count(store), files_before, "simulate adds no file");
    let cold_json = cold.profile.to_json(false);

    let hits_before = store.hits();
    let warm = simulate(&segment(), &cfg);
    assert!(store.hits() > hits_before, "warm trace read from disk");
    assert_eq!(cold.cycles, warm.cycles);
    assert_eq!(cold.x86_retired, warm.x86_retired);
    assert_eq!(cold.coverage.to_bits(), warm.coverage.to_bits());
    assert_eq!(cold.dyn_uops_removed, warm.dyn_uops_removed);
    assert_eq!(cold_json, warm.profile.to_json(false), "profiles identical");

    // Concurrent warm replays (the `--jobs 8` shape): all bit-identical.
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| s.spawn(|| simulate(&segment(), &cfg)))
            .collect();
        for h in handles {
            let r = h.join().unwrap();
            assert_eq!(r.cycles, cold.cycles);
            assert_eq!(cold_json, r.profile.to_json(false));
        }
    });

    // Corrupt every artifact in the cache; the next run must regenerate
    // gracefully and still match the cold run bit for bit.
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        corrupted += 1;
    }
    assert!(corrupted > 0, "cold run left artifacts to corrupt");
    let evictions_before = store.corrupt_evictions();
    let recovered = simulate(&segment(), &cfg);
    assert!(
        store.corrupt_evictions() > evictions_before,
        "damaged artifacts were evicted"
    );
    assert_eq!(cold.cycles, recovered.cycles);
    assert_eq!(cold_json, recovered.profile.to_json(false));
}

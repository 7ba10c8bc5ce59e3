//! The on-disk store: atomic writers, corruption-tolerant readers,
//! process-wide configuration.

use crate::artifact;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Environment variable naming the cache directory. Setting it enables
/// the store for processes that never call [`Store::configure`] (tests,
/// library embedders); the CLI's `--cache-dir` takes precedence over it.
pub const CACHE_DIR_ENV: &str = "REPLAY_CACHE_DIR";

/// Environment variable that disables the store everywhere, overriding
/// both [`Store::configure`] and [`CACHE_DIR_ENV`].
pub const NO_STORE_ENV: &str = "REPLAY_NO_STORE";

/// A persistent, content-addressed artifact store rooted at one
/// directory.
///
/// Artifacts are addressed by `(class, key)` — a short class name
/// (`"trace"`, `"frames"`) and a stable 64-bit content digest of
/// everything that determines the artifact's bytes. Writers are
/// crash-safe (unique temp file, fsync, atomic rename — a loser of a
/// same-key race simply renames over identical content); readers tolerate
/// arbitrary corruption by evicting the damaged file and reporting a
/// miss, so the caller regenerates. All counters are process-lifetime
/// totals and safe to read concurrently.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    corrupt_evictions: AtomicU64,
    write_seq: AtomicU64,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Store> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Store {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            corrupt_evictions: AtomicU64::new(0),
            write_seq: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_for(&self, class: &str, key: u64) -> PathBuf {
        self.root.join(format!("{class}-{key:016x}.rpa"))
    }

    /// Loads and validates an artifact's payload.
    ///
    /// Returns `None` — after evicting the file and counting a corrupt
    /// eviction — if the artifact is truncated, bit-flipped, mislabeled,
    /// or from a different container schema. Never panics on any file
    /// content.
    pub fn load(&self, class: &str, key: u64) -> Option<Vec<u8>> {
        let path = self.path_for(class, key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match artifact::decode(&bytes, class, key) {
            Ok(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.bytes_read
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                Some(payload.to_vec())
            }
            Err(e) => {
                self.evict_corrupt(class, key, &e.to_string());
                None
            }
        }
    }

    /// Removes a damaged artifact, warns, and counts the eviction (plus
    /// the miss the caller is about to regenerate).
    ///
    /// Also the escape hatch for the caller-side round-trip gate: when a
    /// payload passes the container checksum but fails its own decode or
    /// re-encode comparison, the caller evicts through here.
    pub fn evict_corrupt(&self, class: &str, key: u64, why: &str) {
        let path = self.path_for(class, key);
        let _ = fs::remove_file(&path);
        self.corrupt_evictions.fetch_add(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "warning: replay-store: evicting corrupt artifact {} ({why}); regenerating",
            path.display()
        );
    }

    /// Atomically persists an artifact: unique temp file, fsync, rename.
    ///
    /// Returns `false` (after cleaning up the temp file) if any I/O step
    /// fails — a full disk or permission problem degrades to a cold cache,
    /// never to a torn artifact, because the final name only ever appears
    /// via `rename`. Concurrent same-key writers each rename their own
    /// complete temp file; whichever loses simply overwrites identical
    /// content.
    pub fn save(&self, class: &str, key: u64, payload: &[u8]) -> bool {
        let bytes = artifact::encode(class, key, payload);
        let final_path = self.path_for(class, key);
        let seq = self.write_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self.root.join(format!(
            ".{class}-{key:016x}.tmp.{}.{seq}",
            std::process::id()
        ));
        let committed = (|| -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            drop(f);
            fs::rename(&tmp, &final_path)
        })();
        match committed {
            Ok(()) => {
                // Make the rename durable too (best effort — some
                // filesystems reject directory fsync).
                if let Ok(dir) = fs::File::open(&self.root) {
                    let _ = dir.sync_all();
                }
                self.writes.fetch_add(1, Ordering::Relaxed);
                self.bytes_written
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                true
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                eprintln!(
                    "warning: replay-store: could not persist {}: {e}",
                    final_path.display()
                );
                false
            }
        }
    }

    /// Validated artifact loads served.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Loads that found no (usable) artifact.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Artifacts persisted.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Payload bytes served from validated artifacts.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Payload bytes persisted.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Damaged artifacts evicted (each also counts one miss).
    pub fn corrupt_evictions(&self) -> u64 {
        self.corrupt_evictions.load(Ordering::Relaxed)
    }

    /// Records the store counters into a [`replay_obs::Profile`] under
    /// `store.*`.
    pub fn observe_into(&self, profile: &mut replay_obs::Profile) {
        profile.counter_add("store.hits", self.hits());
        profile.counter_add("store.misses", self.misses());
        profile.counter_add("store.writes", self.writes());
        profile.counter_add("store.bytes_read", self.bytes_read());
        profile.counter_add("store.bytes_written", self.bytes_written());
        profile.counter_add("store.corrupt_evictions", self.corrupt_evictions());
    }

    /// Configures the process-wide store before first use.
    ///
    /// `Some(dir)` enables it rooted at `dir` (unless [`NO_STORE_ENV`] is
    /// set, which always wins); `None` disables it. Returns `false` if the
    /// global store was already resolved — configuration must happen
    /// before the first [`Store::global`] call.
    pub fn configure(dir: Option<PathBuf>) -> bool {
        GLOBAL.set(resolve(dir)).is_ok()
    }

    /// The process-wide store, if one is enabled.
    ///
    /// Without an explicit [`Store::configure`] call the store is enabled
    /// only when [`CACHE_DIR_ENV`] names a directory — so `cargo test`
    /// and library embedders stay hermetic by default.
    pub fn global() -> Option<&'static Store> {
        GLOBAL
            .get_or_init(|| resolve(std::env::var_os(CACHE_DIR_ENV).map(PathBuf::from)))
            .as_ref()
    }
}

static GLOBAL: OnceLock<Option<Store>> = OnceLock::new();

fn resolve(dir: Option<PathBuf>) -> Option<Store> {
    if std::env::var_os(NO_STORE_ENV).is_some() {
        return None;
    }
    let dir = dir?;
    match Store::open(&dir) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!(
                "warning: replay-store: cannot open cache dir {}: {e}; store disabled",
                dir.display()
            );
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique scratch directory under the target tmpdir.
    fn scratch(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "replay-store-test-{}-{tag}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn save_then_load_round_trips() {
        let store = Store::open(scratch("roundtrip")).unwrap();
        assert!(store.save("trace", 0x11, b"payload"));
        assert_eq!(store.load("trace", 0x11).unwrap(), b"payload");
        assert_eq!(store.hits(), 1);
        assert_eq!(store.writes(), 1);
        assert_eq!(store.bytes_written(), 7);
        assert_eq!(store.bytes_read(), 7);
    }

    #[test]
    fn missing_artifact_is_a_plain_miss() {
        let store = Store::open(scratch("miss")).unwrap();
        assert!(store.load("trace", 0x22).is_none());
        assert_eq!(store.misses(), 1);
        assert_eq!(store.corrupt_evictions(), 0);
    }

    #[test]
    fn truncated_artifact_evicted_and_regenerable() {
        let store = Store::open(scratch("truncate")).unwrap();
        store.save("trace", 0x33, b"a payload long enough to truncate");
        let path = store.path_for("trace", 0x33);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        assert!(store.load("trace", 0x33).is_none());
        assert_eq!(store.corrupt_evictions(), 1);
        assert!(!path.exists(), "damaged file removed");
        // Regeneration path: a fresh save works and validates again.
        assert!(store.save("trace", 0x33, b"regenerated"));
        assert_eq!(store.load("trace", 0x33).unwrap(), b"regenerated");
    }

    #[test]
    fn bit_flip_evicted() {
        let store = Store::open(scratch("bitflip")).unwrap();
        store.save("frames", 0x44, b"sensitive bits");
        let path = store.path_for("frames", 0x44);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        assert!(store.load("frames", 0x44).is_none());
        assert_eq!(store.corrupt_evictions(), 1);
    }

    #[test]
    fn no_temp_files_left_behind() {
        let store = Store::open(scratch("tmpclean")).unwrap();
        for k in 0..8u64 {
            store.save("trace", k, &[k as u8; 128]);
        }
        let leftovers: Vec<_> = fs::read_dir(store.root())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files remain: {leftovers:?}");
    }
}

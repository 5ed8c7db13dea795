//! Content-addressed on-disk store of captured instruction traces.
//!
//! The `TraceOp` stream of a run is invariant across timing
//! configurations — only `(kernel, graph, threads)` determines it (plus
//! the environment knobs that pick the graph, i.e. `GRAPHPIM_SCALE`).
//! The experiment engine therefore **captures** each distinct workload
//! once — a purely functional kernel execution streamed through the
//! binary codec, no timing simulation — and **replays** the stored bytes
//! through [`SystemSim::run`](crate::system::SystemSim::run) for every
//! sweep point. This mirrors the paper's methodology split:
//! MacSim generates the instruction trace once, SST's memory timing
//! models consume it per configuration.
//!
//! Entries are one `.trace` file per (workload, fingerprint) pair, where
//! the fingerprint (see [`crate::fingerprint`]) covers the codec version,
//! crate version, graph recipe, thread count, and the result-affecting
//! env knobs. Writes go through a unique temp file plus rename, so
//! concurrent writers never expose a torn entry; reads validate the
//! codec checksum and degrade corrupt entries to regeneration, never to
//! wrong replays.
//!
//! Environment knobs:
//!
//! * `GRAPHPIM_TRACE_STORE=<dir>` — store directory (default
//!   `<tmpdir>/graphpim-trace-store`).
//! * `GRAPHPIM_NO_TRACE_STORE=1` — disable capture/replay entirely
//!   (every run executes its kernel live, as before this subsystem).

use graphpim_graph::CsrGraph;
use graphpim_sim::trace::codec::TraceReader;
use graphpim_workloads::framework::{EncodeTrace, Framework, StreamTrace};
use graphpim_workloads::kernels::Kernel;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Warns once per (failure site, store dir) about a store I/O failure,
/// then goes quiet for that pair: an unwritable store dir silently
/// turning every sweep cold is the kind of slowdown nobody notices for
/// weeks, but repeating the warning per entry would bury real output.
/// Keying on the directory means a second store rooted elsewhere still
/// gets its own warning.
fn warn_once(dir: &Path, what: &str, e: &std::io::Error) {
    crate::obs::warn_once(
        &format!("tracestore.{what}:{}", dir.display()),
        "tracestore",
        &format!("cannot {what}; traces will not persist (further store errors suppressed)"),
        &[("path", &dir.display()), ("error", &e)],
    );
}

/// Identity of one functional workload: everything that determines the
/// instruction trace (timing configuration explicitly excluded).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorkloadKey {
    /// Kernel name as accepted by `graphpim_workloads::kernels::by_name`.
    pub kernel: String,
    /// Short filesystem-safe input label (e.g. `ldbc-1k`). The full graph
    /// recipe goes into the fingerprint; this only names the file.
    pub graph: String,
    /// Simulated thread count the trace was captured with (must match the
    /// core count of any config it is replayed under).
    pub threads: usize,
}

impl WorkloadKey {
    /// Filesystem-safe stem for store entries.
    pub fn file_stem(&self) -> String {
        format!(
            "{}-{}-t{}",
            self.kernel.replace('/', "_"),
            self.graph.replace('/', "_"),
            self.threads
        )
    }
}

/// Result of a [`TraceStore::lookup`].
#[derive(Debug)]
pub enum TraceLookup {
    /// A checksum-valid entry for this (key, fingerprint) pair.
    Hit(Vec<u8>),
    /// The entry exists but fails codec validation (torn write, bit rot,
    /// or written by an incompatible codec without a fingerprint bump).
    /// The caller should recapture; the bad file has been evicted
    /// (best-effort, and without clobbering any concurrent
    /// re-publication — see [`TraceStore::lookup`]).
    Corrupt,
    /// Never captured.
    Miss,
}

/// A directory of captured traces, one binary file per
/// (workload, fingerprint) pair. All operations are best-effort: I/O
/// errors degrade to misses / skipped writes, never to wrong results.
#[derive(Debug, Clone)]
pub struct TraceStore {
    dir: PathBuf,
}

impl TraceStore {
    /// The store selected by the environment, or `None` when
    /// `GRAPHPIM_NO_TRACE_STORE` is set.
    pub fn from_env() -> Option<TraceStore> {
        if std::env::var_os("GRAPHPIM_NO_TRACE_STORE").is_some() {
            return None;
        }
        let dir = std::env::var_os("GRAPHPIM_TRACE_STORE")
            .map(PathBuf::from)
            .unwrap_or_else(|| std::env::temp_dir().join("graphpim-trace-store"));
        Some(TraceStore::at(dir))
    }

    /// A store rooted at `dir` (created lazily on first store).
    pub fn at(dir: impl Into<PathBuf>) -> TraceStore {
        TraceStore { dir: dir.into() }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Loads and validates the trace captured for `key` under
    /// `fingerprint`. A corrupt entry is evicted (best-effort) so the
    /// recapture that follows can land cleanly.
    ///
    /// # Concurrency
    ///
    /// Writers publish via temp file + atomic rename, so a read never
    /// observes a torn entry mid-write; the only destructive act a
    /// reader performs is evicting a corrupt file, and a plain
    /// `remove_file` there would race a concurrent re-publication: the
    /// writer can rename a fresh, valid entry over the corrupt one
    /// between this reader's failed validation and its delete, and the
    /// delete would then destroy the *good* entry. Eviction therefore
    /// goes through [`evict_corrupt`](Self::evict_corrupt): atomically
    /// rename the suspect file aside, re-validate what was actually
    /// grabbed, and restore it if it turned out to be a fresh valid
    /// publication.
    pub fn lookup(&self, key: &WorkloadKey, fingerprint: u64) -> TraceLookup {
        let path = self.path(key, fingerprint);
        match std::fs::read(&path) {
            Ok(bytes) => match TraceReader::new(&bytes) {
                Ok(_) => TraceLookup::Hit(bytes),
                Err(_) => self.evict_corrupt(&path),
            },
            Err(_) => TraceLookup::Miss,
        }
    }

    /// Evicts the entry at `path` after a failed validation, without
    /// destroying a concurrently re-published good entry.
    ///
    /// The suspect file is renamed (atomically) to a unique quarantine
    /// name and re-validated *after* the rename — the rename, not the
    /// earlier read, decides which bytes we actually took off the
    /// shelf. Three outcomes:
    ///
    /// * Quarantined bytes are invalid: the corrupt file is gone from
    ///   the store; delete the quarantine file and report `Corrupt`.
    /// * Quarantined bytes are **valid**: a writer re-published between
    ///   our read and our rename, and we grabbed the good entry. Rename
    ///   it back and serve it as a `Hit`. (Captures are deterministic
    ///   per fingerprint, so if yet another publication landed
    ///   meanwhile, clobbering it restores identical bytes.)
    /// * The rename itself fails: another reader evicted first, or the
    ///   entry vanished; nothing to clean up, report `Corrupt` and let
    ///   the caller recapture.
    fn evict_corrupt(&self, path: &Path) -> TraceLookup {
        let quarantine = self.tmp_path();
        if std::fs::rename(path, &quarantine).is_err() {
            return TraceLookup::Corrupt;
        }
        match std::fs::read(&quarantine) {
            Ok(bytes) if TraceReader::new(&bytes).is_ok() => {
                let _ = std::fs::rename(&quarantine, path);
                TraceLookup::Hit(bytes)
            }
            _ => {
                let _ = std::fs::remove_file(&quarantine);
                TraceLookup::Corrupt
            }
        }
    }

    /// Persists `bytes` for `key` under `fingerprint`. Atomic: written to
    /// a unique temp file, then renamed, so concurrent writers (threads
    /// or processes) never expose a torn entry.
    ///
    /// A store failure degrades (the run proceeds, it just re-captures
    /// next time) but warns once per process — an unwritable store dir
    /// silently turning every sweep cold is the kind of slowdown nobody
    /// notices for weeks.
    pub fn store(&self, key: &WorkloadKey, fingerprint: u64, bytes: &[u8]) {
        if let Err(e) = std::fs::create_dir_all(&self.dir) {
            warn_once(&self.dir, "create the store directory", &e);
            return;
        }
        let tmp = self.tmp_path();
        match std::fs::write(&tmp, bytes) {
            Err(e) => warn_once(&self.dir, "write a trace entry", &e),
            Ok(()) => {
                if let Err(e) = std::fs::rename(&tmp, self.path(key, fingerprint)) {
                    warn_once(&self.dir, "publish a trace entry", &e);
                    let _ = std::fs::remove_file(&tmp);
                }
            }
        }
    }

    /// Captures `key`'s workload **streaming straight into the store
    /// entry** and returns the published bytes (read back from disk).
    ///
    /// This is the memory-lean capture path for large inputs: trace bytes
    /// leave the process through a `BufWriter<File>` as the framework
    /// produces them, so the capture's trace footprint is one chunk
    /// instead of the whole encoded stream. Same temp-file + rename
    /// discipline as [`store`](Self::store) — a torn entry is never
    /// published.
    ///
    /// `make_kernel` must return a *fresh* kernel instance each call: on
    /// an I/O failure mid-capture, the partially run kernel is discarded
    /// and the capture restarts in memory (with a best-effort buffered
    /// store), so the caller always gets valid trace bytes back.
    pub fn capture_streaming(
        &self,
        key: &WorkloadKey,
        fingerprint: u64,
        graph: &CsrGraph,
        threads: usize,
        make_kernel: &mut dyn FnMut() -> Box<dyn Kernel>,
    ) -> Vec<u8> {
        match self.capture_streaming_inner(key, fingerprint, graph, threads, make_kernel) {
            Ok(bytes) => bytes,
            Err(e) => {
                warn_once(&self.dir, "stream a capture to disk", &e);
                let mut kernel = make_kernel();
                let bytes = capture_kernel(kernel.as_mut(), graph, threads);
                self.store(key, fingerprint, &bytes);
                bytes
            }
        }
    }

    fn capture_streaming_inner(
        &self,
        key: &WorkloadKey,
        fingerprint: u64,
        graph: &CsrGraph,
        threads: usize,
        make_kernel: &mut dyn FnMut() -> Box<dyn Kernel>,
    ) -> std::io::Result<Vec<u8>> {
        std::fs::create_dir_all(&self.dir)?;
        let tmp = self.tmp_path();
        let write = (|| -> std::io::Result<()> {
            let file = std::fs::File::create(&tmp)?;
            let mut stream = StreamTrace::new(threads, std::io::BufWriter::new(file))?;
            {
                let mut fw = Framework::new(threads, &mut stream);
                make_kernel().run(graph, &mut fw);
                fw.finish();
            }
            let writer = stream.finish()?;
            let mut file = writer.into_inner().map_err(|e| e.into_error())?;
            file.flush()
        })();
        if let Err(e) = write {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        let path = self.path(key, fingerprint);
        if let Err(e) = std::fs::rename(&tmp, &path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        std::fs::read(&path)
    }

    fn tmp_path(&self) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn path(&self, key: &WorkloadKey, fingerprint: u64) -> PathBuf {
        self.dir
            .join(format!("{}-{fingerprint:016x}.trace", key.file_stem()))
    }
}

/// Captures the full instruction trace of one kernel run: a purely
/// functional execution over `threads` simulated threads, streamed
/// straight into the binary codec. No timing model is involved; the
/// result replays bit-identically under any `SystemConfig` whose core
/// count equals `threads`.
pub fn capture_kernel(kernel: &mut dyn Kernel, graph: &CsrGraph, threads: usize) -> Vec<u8> {
    let mut encoder = EncodeTrace::new(threads);
    {
        let mut fw = Framework::new(threads, &mut encoder);
        kernel.run(graph, &mut fw);
        fw.finish();
    }
    encoder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphpim_graph::generate::GraphSpec;
    use graphpim_sim::trace::codec;
    use graphpim_workloads::kernels::Bfs;

    fn tmp_store(name: &str) -> TraceStore {
        let dir = std::env::temp_dir().join(format!(
            "graphpim-tracestore-test-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TraceStore::at(dir)
    }

    fn key() -> WorkloadKey {
        WorkloadKey {
            kernel: "BFS".into(),
            graph: "uniform-200".into(),
            threads: 2,
        }
    }

    fn sample_trace() -> Vec<u8> {
        let graph = GraphSpec::uniform(200, 800).seed(3).build();
        capture_kernel(&mut Bfs::new(0), &graph, 2)
    }

    #[test]
    fn capture_produces_a_valid_trace() {
        let bytes = sample_trace();
        let (threads, events) = codec::decode(&bytes).expect("capture must be decodable");
        assert_eq!(threads, 2);
        assert!(!events.is_empty(), "BFS must emit work");
    }

    #[test]
    fn round_trips_through_disk() {
        let store = tmp_store("roundtrip");
        let bytes = sample_trace();
        store.store(&key(), 0xFEED, &bytes);
        match store.lookup(&key(), 0xFEED) {
            TraceLookup::Hit(loaded) => assert_eq!(loaded, bytes),
            other => panic!("expected hit, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn streaming_capture_matches_buffered_and_publishes() {
        let store = tmp_store("streamcap");
        let graph = GraphSpec::uniform(200, 800).seed(3).build();
        let buffered = capture_kernel(&mut Bfs::new(0), &graph, 2);
        let streamed =
            store.capture_streaming(&key(), 0xBEEF, &graph, 2, &mut || Box::new(Bfs::new(0)));
        assert_eq!(streamed, buffered, "stream and buffer paths must agree");
        match store.lookup(&key(), 0xBEEF) {
            TraceLookup::Hit(loaded) => assert_eq!(loaded, buffered),
            other => panic!("expected hit, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn changed_fingerprint_misses() {
        let store = tmp_store("fingerprint");
        store.store(&key(), 1, &sample_trace());
        assert!(matches!(store.lookup(&key(), 2), TraceLookup::Miss));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_entry_is_reported_and_removed() {
        let store = tmp_store("corrupt");
        let bytes = sample_trace();
        store.store(&key(), 7, &bytes);
        // Flip one payload byte: the codec checksum must catch it.
        let path = store.path(&key(), 7);
        let mut bad = std::fs::read(&path).unwrap();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(store.lookup(&key(), 7), TraceLookup::Corrupt));
        // The bad file is gone, so the next lookup is a clean miss.
        assert!(matches!(store.lookup(&key(), 7), TraceLookup::Miss));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn eviction_rescues_a_concurrently_republished_entry() {
        // Simulates the writer-vs-evicting-reader race: by the time the
        // reader gets around to evicting, the path holds a *valid*
        // entry again. Eviction must serve it, not destroy it.
        let store = tmp_store("rescue");
        let bytes = sample_trace();
        store.store(&key(), 11, &bytes);
        let path = store.path(&key(), 11);
        match store.evict_corrupt(&path) {
            TraceLookup::Hit(rescued) => assert_eq!(rescued, bytes),
            other => panic!("valid entry must be rescued, got {other:?}"),
        }
        // ... and restored: the store still serves it.
        assert!(matches!(store.lookup(&key(), 11), TraceLookup::Hit(_)));
        // A genuinely corrupt file is evicted for good.
        std::fs::write(&path, b"garbage").unwrap();
        assert!(matches!(store.evict_corrupt(&path), TraceLookup::Corrupt));
        assert!(matches!(store.lookup(&key(), 11), TraceLookup::Miss));
        // No quarantine debris left behind.
        let leftovers: Vec<_> = std::fs::read_dir(store.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "quarantine files must be cleaned up");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn file_stems_are_filesystem_safe_and_distinct() {
        let a = key();
        let mut b = key();
        b.threads = 16;
        assert_ne!(a.file_stem(), b.file_stem());
        assert!(!a.file_stem().contains('/'));
    }
}

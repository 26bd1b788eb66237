//! Multi-tenant schema registry: content-hashed compile cache and
//! concurrent corpus compilation.
//!
//! A validation *service* assumes one compiled [`Schema`]; a validation
//! *fleet* sees thousands of schemas arriving, repeating, and changing
//! while documents are in flight. This module is the layer between
//! compilation and serving that makes that cheap:
//!
//! * **Content-hashed cache** — [`Registry::compile`] keys compiled
//!   artifacts by a 128-bit hash of the *whitespace-normalized* DTD text
//!   ([`content_hash`]), so byte-identical schema text — across tenants,
//!   reconnects, and repeated `redet serve --schema` flags — compiles
//!   exactly once and shares one `Arc<Schema>`. Hit/miss/compile counters
//!   ([`Registry::stats`]) make the dedup auditable.
//! * **Concurrent corpus compilation** — [`Registry::compile_corpus`] fans
//!   a batch of DTD sources across `std::thread::scope` workers (the same
//!   sharding pattern as [`crate::ValidatorPool`]), deduplicating by hash
//!   *before* any thread spawns, and returns input-order results. This is
//!   the multi-threaded entry point into [`crate::SchemaBuilder`] — the
//!   builder and its [`redet_core::Pipeline`] are owned per worker, and
//!   the produced [`Schema`]s are `Send + Sync`.
//!
//! The registry only compiles; it does not decide which artifact serves a
//! schema id. Hot-swap has one path: the front end compiles the new text
//! here and hands the artifact to
//! [`ValidationService::swap_schema`](crate::ValidationService::swap_schema)
//! (through `redet_server::SchemaRouter::publish`). Documents already in
//! flight keep their own `Arc` clone, so the old artifact drops exactly
//! when its last in-flight document finishes.
//!
//! ```
//! use redet_schema::registry::Registry;
//!
//! let mut registry = Registry::new();
//! let a = registry.compile("<!ELEMENT note (#PCDATA)>").unwrap();
//! let b = registry.compile("<!ELEMENT  note  (#PCDATA)>  ").unwrap();
//! assert!(std::sync::Arc::ptr_eq(&a, &b)); // normalized text, one artifact
//! assert_eq!(registry.stats().compiled, 1);
//! assert_eq!(registry.stats().hits, 1);
//! ```

use crate::{Schema, SchemaBuilder};
use redet_core::Diagnostic;
use std::collections::HashMap;
use std::sync::Arc;

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Content hash of DTD source text: 128-bit FNV-1a over the
/// whitespace-normalized bytes.
///
/// Normalization folds every run of ASCII whitespace (space, tab, CR, LF,
/// form feed) to a single space and ignores leading/trailing whitespace,
/// so reformatting a DTD — reflowing declarations, converting line
/// endings, trailing newlines — does not change its identity. Anything
/// inside the text that survives normalization (names, models, attribute
/// defaults) does. The hash is dependency-free and streaming: no
/// intermediate normalized string is allocated.
#[must_use]
pub fn content_hash(source: &str) -> u128 {
    let mut hash = FNV_OFFSET;
    let mut pending_space = false;
    let mut started = false;
    for &byte in source.as_bytes() {
        if byte.is_ascii_whitespace() {
            pending_space = started;
            continue;
        }
        if pending_space {
            hash = (hash ^ u128::from(b' ')).wrapping_mul(FNV_PRIME);
            pending_space = false;
        }
        started = true;
        hash = (hash ^ u128::from(byte)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Where a [`Registry::compile_traced`] artifact came from: a cache hit or
/// a fresh pipeline compilation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// The normalized source hashed to an already-compiled artifact.
    Cached,
    /// The source was compiled through a fresh [`SchemaBuilder`] pipeline.
    Compiled,
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Provenance::Cached => "cached",
            Provenance::Compiled => "compiled",
        })
    }
}

/// Cache-audit counters of a [`Registry`]; see [`Registry::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Compile requests served from the content-hash cache (including
    /// batch-mates of a source compiled earlier in the same
    /// [`Registry::compile_corpus`] call).
    pub hits: u64,
    /// Compile requests that could not be served from the cache — each
    /// distinct new text counts once per request that forced or awaited
    /// its compilation's first run (failures count every time: rejected
    /// sources are never cached).
    pub misses: u64,
    /// Pipeline compilations actually performed (successes and failures).
    /// For a corpus of 256 sources with 32 distinct texts on a fresh
    /// registry this is exactly 32.
    pub compiled: u64,
    /// Distinct artifacts currently cached.
    pub cached: usize,
}

/// The multi-tenant schema registry: a content-hashed compile cache.
///
/// Compilation goes through [`Registry::compile`] (or the batched,
/// multi-threaded [`Registry::compile_corpus`]): identical normalized DTD
/// text compiles once and every caller shares the same `Arc<Schema>`.
///
/// The registry itself is single-writer (`&mut self` for compilation) —
/// concurrency lives in `compile_corpus`'s scoped workers, and the
/// artifacts it returns are `Send + Sync`.
#[derive(Debug, Default)]
pub struct Registry {
    cache: HashMap<u128, Arc<Schema>>,
    hits: u64,
    misses: u64,
    compiled: u64,
}

impl Registry {
    /// Creates an empty registry: no cached artifacts.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Compiles DTD source text, serving byte-identical (after whitespace
    /// normalization) text from the cache. On failure the *first* build
    /// diagnostic is returned — run [`SchemaBuilder`] directly for the
    /// full list — and nothing is cached: rejected text recompiles on
    /// every request.
    pub fn compile(&mut self, source: &str) -> Result<Arc<Schema>, Diagnostic> {
        self.compile_traced(source).map(|(schema, _)| schema)
    }

    /// [`Registry::compile`] plus the artifact's [`Provenance`] — whether
    /// this request hit the cache or performed a pipeline compilation.
    pub fn compile_traced(
        &mut self,
        source: &str,
    ) -> Result<(Arc<Schema>, Provenance), Diagnostic> {
        let hash = content_hash(source);
        if let Some(schema) = self.cache.get(&hash) {
            self.hits += 1;
            return Ok((Arc::clone(schema), Provenance::Cached));
        }
        self.misses += 1;
        self.compiled += 1;
        let schema = Self::build_one(source)?;
        self.cache.insert(hash, Arc::clone(&schema));
        Ok((schema, Provenance::Compiled))
    }

    /// Compiles a batch of DTD sources across up to `workers` scoped
    /// threads, returning one result per source in input order.
    ///
    /// Sources are hashed and deduplicated — against the cache *and*
    /// within the batch — before any thread spawns, so a corpus of 256
    /// sources with 32 distinct texts performs exactly 32 pipeline
    /// compilations, however the duplicates are ordered. Every occurrence
    /// of the same text receives the same `Arc<Schema>` (or, for text
    /// that fails to build, a clone of the same first diagnostic —
    /// failures compile once per batch but are never cached across
    /// calls). Each worker owns its own [`SchemaBuilder`] pipeline;
    /// `workers` is clamped to the number of pending distinct sources,
    /// and a single-shard batch compiles inline on the caller's thread.
    pub fn compile_corpus<S: AsRef<str> + Sync>(
        &mut self,
        sources: &[S],
        workers: usize,
    ) -> Vec<Result<Arc<Schema>, Diagnostic>> {
        let hashes: Vec<u128> = sources
            .iter()
            .map(|source| content_hash(source.as_ref()))
            .collect();
        let cached_at_entry: Vec<bool> = hashes
            .iter()
            .map(|hash| self.cache.contains_key(hash))
            .collect();
        // Dedup before spawning: one job per distinct uncached text.
        let mut pending: Vec<(u128, &str)> = Vec::new();
        for (index, &hash) in hashes.iter().enumerate() {
            if !cached_at_entry[index] && !pending.iter().any(|&(seen, _)| seen == hash) {
                pending.push((hash, sources[index].as_ref()));
            }
        }

        let mut outcomes: Vec<Option<Result<Arc<Schema>, Diagnostic>>> = Vec::new();
        outcomes.resize_with(pending.len(), || None);
        let shards = workers.max(1).min(pending.len().max(1));
        if shards <= 1 {
            for ((_, source), slot) in pending.iter().zip(&mut outcomes) {
                *slot = Some(Self::build_one(source));
            }
        } else {
            // Balanced contiguous shards, same split as ValidatorPool.
            let base = pending.len() / shards;
            let extra = pending.len() % shards;
            std::thread::scope(|scope| {
                let mut job_rest = pending.as_slice();
                let mut out_rest = outcomes.as_mut_slice();
                for shard in 0..shards {
                    let take = base + usize::from(shard < extra);
                    let (jobs, jobs_tail) = job_rest.split_at(take);
                    let (outs, outs_tail) = out_rest.split_at_mut(take);
                    job_rest = jobs_tail;
                    out_rest = outs_tail;
                    scope.spawn(move || {
                        for ((_, source), slot) in jobs.iter().zip(outs) {
                            *slot = Some(Self::build_one(source));
                        }
                    });
                }
            });
        }

        self.compiled += pending.len() as u64;
        let mut failures: Vec<(u128, Diagnostic)> = Vec::new();
        for ((hash, _), outcome) in pending.iter().zip(outcomes) {
            match outcome.expect("every shard fills its assigned slots") {
                Ok(schema) => {
                    self.cache.insert(*hash, schema);
                }
                Err(diagnostic) => failures.push((*hash, diagnostic)),
            }
        }

        let mut counted_first: Vec<u128> = Vec::new();
        hashes
            .iter()
            .zip(cached_at_entry)
            .map(|(&hash, was_cached)| {
                if let Some(schema) = self.cache.get(&hash) {
                    // First occurrence of a batch-compiled text is the
                    // miss; its batch-mates hit the just-filled cache.
                    if was_cached || counted_first.contains(&hash) {
                        self.hits += 1;
                    } else {
                        self.misses += 1;
                        counted_first.push(hash);
                    }
                    Ok(Arc::clone(schema))
                } else {
                    self.misses += 1;
                    let diagnostic = failures
                        .iter()
                        .find(|(failed, _)| *failed == hash)
                        .map(|(_, diagnostic)| diagnostic.clone())
                        .expect("uncached batch source must have a recorded failure");
                    Err(diagnostic)
                }
            })
            .collect()
    }

    /// Cache-audit counters: cumulative hits/misses/compilations plus the
    /// current number of cached artifacts.
    #[must_use]
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            hits: self.hits,
            misses: self.misses,
            compiled: self.compiled,
            cached: self.cache.len(),
        }
    }

    fn build_one(source: &str) -> Result<Arc<Schema>, Diagnostic> {
        SchemaBuilder::new()
            .parse_dtd(source)
            .build()
            .map_err(|mut diagnostics| diagnostics.remove(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn note_dtd(extra: &str) -> String {
        format!("<!ELEMENT note (line{extra})*> <!ELEMENT line (#PCDATA)>")
    }

    #[test]
    fn hash_normalizes_whitespace() {
        let canonical = content_hash("<!ELEMENT a (b)> <!ELEMENT b EMPTY>");
        assert_eq!(
            content_hash("  <!ELEMENT a\t(b)>\r\n<!ELEMENT b EMPTY>\n"),
            canonical
        );
        assert_ne!(
            content_hash("<!ELEMENT a (b)> <!ELEMENT c EMPTY>"),
            canonical
        );
        // Whitespace folding must not merge adjacent tokens.
        assert_ne!(content_hash("a b"), content_hash("ab"));
    }

    #[test]
    fn identical_text_compiles_once() {
        let mut registry = Registry::new();
        let first = registry.compile(&note_dtd("")).unwrap();
        let second = registry.compile(&format!("  {}\n", note_dtd(""))).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let stats = registry.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.compiled, stats.cached),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn failures_are_not_cached() {
        let mut registry = Registry::new();
        let bad = "<!ELEMENT a (b | b)>"; // not deterministic
        assert!(registry.compile(bad).is_err());
        assert!(registry.compile(bad).is_err());
        let stats = registry.stats();
        assert_eq!((stats.misses, stats.compiled, stats.cached), (2, 2, 0));
    }

    #[test]
    fn corpus_dedups_before_compiling() {
        let mut registry = Registry::new();
        let sources: Vec<String> = (0..64).map(|i| note_dtd(&format!("{}", i % 8))).collect();
        let results = registry.compile_corpus(&sources, 4);
        assert_eq!(results.len(), 64);
        for (i, result) in results.iter().enumerate() {
            let schema = result.as_ref().unwrap();
            assert!(Arc::ptr_eq(schema, results[i % 8].as_ref().unwrap()));
        }
        let stats = registry.stats();
        assert_eq!(stats.compiled, 8);
        assert_eq!(stats.misses, 8);
        assert_eq!(stats.hits, 56);
        assert_eq!(stats.cached, 8);
    }

    #[test]
    fn corpus_reports_per_source_failures() {
        let mut registry = Registry::new();
        let good = note_dtd("");
        let bad = "<!ELEMENT a (b | b)>".to_owned();
        let sources = [good.clone(), bad.clone(), good.clone(), bad.clone()];
        let results = registry.compile_corpus(&sources, 2);
        assert!(results[0].is_ok() && results[2].is_ok());
        let first = results[1].as_ref().unwrap_err();
        let second = results[3].as_ref().unwrap_err();
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
        let stats = registry.stats();
        // The failing text compiled once in the batch but is not cached.
        assert_eq!((stats.compiled, stats.cached), (2, 1));
        assert_eq!((stats.hits, stats.misses), (1, 3));
    }

    #[test]
    fn registry_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Registry>();
        assert_send_sync::<RegistryStats>();
    }
}

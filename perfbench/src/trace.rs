//! The traced run: in-memory spans, the in-process replays that time each
//! layer's public entry point on the workload's own bytes, a std loopback
//! echo for the socket floor, and the decomposition of the end-to-end time
//! per document into layer self times plus an explicit remainder.
//!
//! | layer | public call timed |
//! |---|---|
//! | `socket` | a std loopback echo of the same request sizes, on the server's CPU |
//! | `router` | `SchemaRouter::open` / `SchemaRouter::finish` |
//! | `service` | `ValidationService::feed_bytes` (via the router), 16 KiB chunks |
//! | `tokenizer` | `Tokenizer::feed` with a no-op sink |
//! | `validator` | `DocumentValidator::validate_events` on pre-interned events |
//! | `core` | `DeterministicRegex::pos_begin/pos_advance/pos_can_end` per child word |
//! | `wire` | `wire::render_verdict` |
//! | `registry` | `Registry::compile_traced` (cold and cached) |
//!
//! `feed_bytes` cannot be split from outside, so the service's self time
//! is its span minus the tokenizer and validator replays of the same
//! documents, and the validator's is its span minus the core replay.

use crate::corpus::{intern, Corpus};
use crate::stats::{mean, median, percentile, Decomposition};
use redet_schema::registry::{Provenance, Registry};
use redet_schema::{DocEvent, Schema, Tag, Tokenizer};
use redet_server::wire;
use redet_syntax::Symbol;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::Stdio;
use std::time::{Duration, Instant};

/// The server's socket read size: the service sees bodies in chunks of at
/// most this many bytes.
const CHUNK: usize = 16 * 1024;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, such as `router.open`.
    pub name: &'static str,
    /// Start, in ns since the trace epoch.
    pub start_ns: u64,
    /// End, in ns since the trace epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// The request (document) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished interval and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span that [`Tracer::close`] ends; children recorded in
    /// between name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = f();
        self.record(name, parent, request, start, Instant::now());
        value
    }

    /// Adds spans recorded by another tracer with the same epoch.
    pub fn extend(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Gives up the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Each named span's self time in ns: its duration minus the time its
    /// direct children cover.
    pub fn self_ns(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| s.ns().saturating_sub(c) as f64)
            .collect()
    }

    /// Writes the spans as CSV: `index,name,parent,request,start_ns,end_ns`.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index,name,parent,request,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{i},{},{parent},{},{},{}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-layer figures of one traced run; field names follow the metric
/// names.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// `socket.rtt_p50_us`.
    pub socket_rtt_p50_us: f64,
    /// `router.open_ns` (mean per call).
    pub router_open_ns: f64,
    /// `router.finish_ns` (mean per call).
    pub router_finish_ns: f64,
    /// `service.feed_bytes` ns per document.
    pub feed_ns_per_doc: f64,
    /// `service.feed_bytes_ns_per_kb`.
    pub feed_ns_per_kb: f64,
    /// `tokenizer.feed` ns per document.
    pub tokenizer_ns_per_doc: f64,
    /// `tokenizer.feed_ns_per_kb`.
    pub tokenizer_ns_per_kb: f64,
    /// `tokenizer.tags_per_kb`.
    pub tags_per_kb: f64,
    /// `validator.validate_events` ns per document.
    pub validator_ns_per_doc: f64,
    /// `validator.ns_per_event`.
    pub validator_ns_per_event: f64,
    /// `validator.events_per_doc`.
    pub events_per_doc: f64,
    /// Core stepping ns per document.
    pub core_ns_per_doc: f64,
    /// `core.ns_per_step`.
    pub core_ns_per_step: f64,
    /// `core.steps_per_doc`.
    pub steps_per_doc: f64,
    /// `wire.render_ns` (mean per call).
    pub wire_render_ns: f64,
    /// `registry.compile_cold_us` (mean).
    pub compile_cold_us: f64,
    /// `registry.compile_cached_us` (mean).
    pub compile_cached_us: f64,
    /// `registry.hit_ratio` over the server's compile sequence.
    pub hit_ratio: f64,
    /// `trace.overhead_pct`: the traced request path over the same calls
    /// untraced, each document run both ways back to back.
    pub overhead_pct: f64,
    /// Documents that failed to replay with their oracle verdict.
    pub mismatches: u64,
}

/// Replays the pool through every layer in process, recording spans into
/// `tracer`: every document at least `min_rounds` times and at least
/// `min_docs` documents in all, after one warm-up round whose spans are
/// dropped. Each document goes through the request path and then, right
/// after, through the tokenizer, validator and core replays, so that the
/// subtractions between layers compare calls made within microseconds of
/// each other. `publishes` is the sequence of texts the server compiled
/// after its startup schemas.
///
/// A document's cost in a layer is the median over its rounds, so a
/// preempted call does not inflate it; per-document figures average those
/// over the whole pool, which is the traffic's mix, counting a document
/// that never reaches a layer (one that does not intern skips the
/// validator and core replays) as costing it nothing.
pub fn replay(
    corpus: &Corpus,
    publishes: &[String],
    min_docs: usize,
    min_rounds: usize,
    tracer: &mut Tracer,
) -> Result<Layers, String> {
    let schemas = corpus.schemas()?;
    let pool = corpus.docs.len();
    let rounds = min_docs.div_ceil(pool).max(min_rounds);
    let pool_kb: f64 = corpus.pool_bytes() as f64 / 1000.0;
    let mut layers = Layers::default();
    let mut router = corpus.router()?;
    let mut tokenizer = Tokenizer::default();
    let mut validators: Vec<_> = schemas.iter().map(Schema::validator).collect();
    // The event form and child words of every document that interns: all
    // but those naming undeclared elements or holding malformed markup.
    let interned: Vec<Option<(Vec<DocEvent>, Words)>> = corpus
        .docs
        .iter()
        .map(|doc| {
            let schema = &schemas[doc.schema];
            intern(schema, &doc.body).map(|events| {
                let words = child_words(schema, &events);
                (events, words)
            })
        })
        .collect();
    let mut traced_rounds = Vec::new();
    let mut untraced_rounds = Vec::new();
    let mut tags = 0u64;
    let mut steps = 0u64;
    for round in 0..=rounds {
        let first_span = tracer.spans().len();
        let mut traced = Duration::ZERO;
        let mut untraced = Duration::ZERO;
        for (n, doc) in corpus.docs.iter().enumerate() {
            let request = (round * pool + n) as u64;
            // The request path untraced, to price the spans below.
            let start = Instant::now();
            let verdict = router.validate_bytes(&corpus.ids[doc.schema], &doc.body);
            black_box(wire::render_verdict(&verdict));
            untraced += start.elapsed();

            // router.open → service.feed_bytes per chunk → router.finish →
            // wire.render, under one root span.
            let start = Instant::now();
            let root = tracer.open("request", None, request);
            let id = &corpus.ids[doc.schema];
            let handle = tracer.time("router.open", Some(root), request, || router.open(id));
            let handle = handle.map_err(|d| wire::render_diagnostic(&d))?;
            for chunk in doc.body.chunks(CHUNK) {
                let _status = tracer.time("service.feed_bytes", Some(root), request, || {
                    router.feed_bytes(handle, chunk)
                });
            }
            let verdict = tracer.time("router.finish", Some(root), request, || {
                router.finish(handle)
            });
            let line = tracer.time("wire.render", Some(root), request, || {
                wire::render_verdict(black_box(&verdict))
            });
            tracer.close(root);
            traced += start.elapsed();
            if round == 0 && line != corpus.expected[n] {
                layers.mismatches += 1;
            }

            // The tokenizer alone, same bytes and chunks, no-op sink.
            tokenizer.reset();
            let mut count = 0u64;
            tracer.time("tokenizer.feed", None, request, || {
                for chunk in doc.body.chunks(CHUNK) {
                    tokenizer.feed(chunk, &mut |tag: Tag<'_>| {
                        black_box(&tag);
                        count += 1;
                        true
                    });
                }
            });
            let Some((events, words)) = &interned[n] else {
                continue;
            };
            let validator = &mut validators[doc.schema];
            let verdict = tracer.time("validator.validate_events", None, request, || {
                validator.validate_events(black_box(events))
            });
            let schema = &schemas[doc.schema];
            let count_steps = tracer.time("core.step", None, request, || step_words(schema, words));
            if round == 0 && verdict.is_ok() != (corpus.expected[n] == "ok") {
                layers.mismatches += 1;
            }
            if round == 1 {
                tags += count;
                steps += count_steps;
            }
        }
        if round == 0 {
            tracer.truncate(first_span);
        } else {
            traced_rounds.push(traced.as_secs_f64());
            untraced_rounds.push(untraced.as_secs_f64());
        }
    }
    layers.overhead_pct = (median(&traced_rounds) / median(&untraced_rounds) - 1.0) * 100.0;
    layers.router_open_ns = mean(&tracer.per_doc_ns("router.open", pool));
    layers.router_finish_ns = mean(&tracer.per_doc_ns("router.finish", pool));
    layers.wire_render_ns = mean(&tracer.per_doc_ns("wire.render", pool));
    let feed = tracer.per_doc_ns("service.feed_bytes", pool);
    layers.feed_ns_per_doc = pool_mean(&feed, pool);
    layers.feed_ns_per_kb = feed.iter().sum::<f64>() / pool_kb;
    let tokenize = tracer.per_doc_ns("tokenizer.feed", pool);
    layers.tokenizer_ns_per_doc = pool_mean(&tokenize, pool);
    layers.tokenizer_ns_per_kb = tokenize.iter().sum::<f64>() / pool_kb;
    layers.tags_per_kb = tags as f64 / pool_kb;
    let interned_docs = interned.iter().flatten().count() as f64;
    let events: usize = interned.iter().flatten().map(|(e, _)| e.len()).sum();
    if events == 0 {
        return Err("no document interns into events".to_owned());
    }
    let validate = tracer.per_doc_ns("validator.validate_events", pool);
    layers.validator_ns_per_doc = pool_mean(&validate, pool);
    layers.validator_ns_per_event = validate.iter().sum::<f64>() / events as f64;
    layers.events_per_doc = events as f64 / interned_docs;
    let step = tracer.per_doc_ns("core.step", pool);
    layers.core_ns_per_doc = pool_mean(&step, pool);
    layers.core_ns_per_step = step.iter().sum::<f64>() / steps.max(1) as f64;
    layers.steps_per_doc = steps as f64 / interned_docs;

    // Registry: the server's compile sequence (startup schemas, then every
    // publish), then each publish text once more from the cache.
    let mut registry = Registry::new();
    for source in &corpus.sources {
        tracer
            .time("registry.compile_startup", None, 0, || {
                registry.compile_traced(source)
            })
            .map_err(|d| wire::render_diagnostic(&d))?;
    }
    for (k, text) in publishes.iter().enumerate() {
        let (_, provenance) = tracer
            .time("registry.compile_cold", None, k as u64, || {
                registry.compile_traced(text)
            })
            .map_err(|d| wire::render_diagnostic(&d))?;
        if provenance != Provenance::Compiled {
            return Err(format!("publish {k} was served from the cache"));
        }
    }
    let stats = registry.stats();
    layers.hit_ratio = stats.hits as f64 / (stats.hits + stats.misses) as f64;
    for (k, text) in publishes.iter().enumerate() {
        let (_, provenance) = tracer
            .time("registry.compile_cached", None, k as u64, || {
                registry.compile_traced(text)
            })
            .map_err(|d| wire::render_diagnostic(&d))?;
        if provenance != Provenance::Cached {
            return Err(format!("publish {k} missed the cache on a repeat"));
        }
    }
    // Means: publishes alternate between a large schema and small ones, and a
    // median of the mix would pick one of the two.
    layers.compile_cold_us = mean(&tracer.self_ns("registry.compile_cold")) / 1000.0;
    layers.compile_cached_us = mean(&tracer.self_ns("registry.compile_cached")) / 1000.0;
    Ok(layers)
}

impl Tracer {
    /// Drops spans recorded from index `len` on.
    fn truncate(&mut self, len: usize) {
        self.spans.truncate(len);
    }

    /// Each pool document's self time in the spans named `name`: summed
    /// within a request (a document fed in several chunks), then the
    /// median over the rounds that replayed it. Request `r` replays
    /// document `r % pool`; documents without such spans are left out.
    pub fn per_doc_ns(&self, name: &str, pool: usize) -> Vec<f64> {
        let mut by_request: BTreeMap<u64, f64> = BTreeMap::new();
        let requests = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.request);
        for (request, ns) in requests.zip(self.self_ns(name)) {
            *by_request.entry(request).or_default() += ns;
        }
        let mut per_doc = vec![Vec::new(); pool];
        for (request, ns) in by_request {
            per_doc[(request % pool as u64) as usize].push(ns);
        }
        per_doc
            .iter()
            .filter(|rounds| !rounds.is_empty())
            .map(|rounds| median(rounds))
            .collect()
    }
}

/// Mean cost per document of the `pool` over the costs `per_doc` of the
/// documents that reached a layer: the rest cost it nothing, so layers
/// reached by different documents subtract on the same basis.
fn pool_mean(per_doc: &[f64], pool: usize) -> f64 {
    per_doc.iter().sum::<f64>() / pool as f64
}

/// Each element's name with the names of its element children, in order.
type Words = Vec<(Symbol, Vec<Symbol>)>;

/// Each element's child word, for the elements whose content model steps
/// a single position (not counted, not `EMPTY`/`ANY`/text-only).
fn child_words(schema: &Schema, events: &[DocEvent]) -> Words {
    let mut stack: Vec<(Symbol, Vec<Symbol>)> = Vec::new();
    let mut words = Vec::new();
    for event in events {
        match *event {
            DocEvent::Open(sym) => {
                if let Some((_, children)) = stack.last_mut() {
                    children.push(sym);
                }
                stack.push((sym, Vec::new()));
            }
            DocEvent::Close => {
                if let Some((sym, children)) = stack.pop() {
                    if schema.model(sym).is_some_and(|m| m.pos_begin().is_some()) {
                        words.push((sym, children));
                    }
                }
            }
            _ => {}
        }
    }
    words
}

/// Steps every child word through its element's content model; returns
/// the number of `pos_advance` calls made.
fn step_words(schema: &Schema, words: &Words) -> u64 {
    let mut steps = 0;
    for (sym, children) in words {
        let Some(model) = schema.model(*sym) else {
            continue;
        };
        let Some(mut pos) = model.pos_begin() else {
            continue;
        };
        let mut alive = true;
        for &child in children {
            steps += 1;
            match model.pos_advance(pos, black_box(child)) {
                Some(next) => pos = next,
                None => {
                    alive = false;
                    break;
                }
            }
        }
        black_box(alive && model.pos_can_end(pos));
    }
    steps
}

/// Round-trip p50 in µs of a std loopback echo: `exe --echo` runs as a
/// child process pinned to `cpu` (the server's), reads each framed request
/// and answers a line as long as the real verdict. The round trips thus
/// cross the same two CPUs and carry the same sizes as the measured
/// traffic, minus redet.
pub fn socket_rtt_p50_us(
    exe: &Path,
    cpu: Option<usize>,
    requests: &[Vec<u8>],
    response_lens: &[usize],
    rounds: usize,
) -> Result<f64, String> {
    let mut child = crate::server::pinned(exe, cpu)
        .arg("--echo")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("echo start: {e}"))?;
    let measured = (|| -> Result<Vec<f64>, String> {
        let mut lens: String = response_lens.iter().map(|n| format!("{n}\n")).collect();
        lens.push('\n');
        let mut stdin = child.stdin.take().expect("stdin is piped");
        stdin
            .write_all(lens.as_bytes())
            .map_err(|e| format!("echo lengths: {e}"))?;
        drop(stdin);
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("stdout is piped"))
            .read_line(&mut line)
            .map_err(|e| format!("echo address: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse::<std::net::SocketAddr>().ok())
            .ok_or_else(|| format!("echo printed '{}'", line.trim()))?;
        let stream = TcpStream::connect(addr).map_err(|e| format!("echo connect: {e}"))?;
        let client = || -> std::io::Result<Vec<f64>> {
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(crate::server::READ_TIMEOUT))?;
            let mut reader = BufReader::new(&stream);
            let mut samples = Vec::with_capacity(rounds);
            let mut reply = Vec::new();
            for k in 0..rounds {
                let start = Instant::now();
                (&stream).write_all(&requests[k % requests.len()])?;
                reply.clear();
                reader.read_until(b'\n', &mut reply)?;
                samples.push(start.elapsed().as_secs_f64() * 1e6);
            }
            Ok(samples)
        };
        client().map_err(|e| format!("echo client: {e}"))
    })();
    // The echo exits at end of stream; a failed run leaves it blocked.
    if measured.is_err() {
        let _ = child.kill();
    }
    let status = child.wait().map_err(|e| format!("echo wait: {e}"))?;
    let mut samples = measured?;
    if !status.success() {
        return Err(format!("echo exited with {status}"));
    }
    samples.sort_by(f64::total_cmp);
    Ok(percentile(&samples, 0.5))
}

/// The echo side of [`socket_rtt_p50_us`], run as `perfbench --echo`:
/// reads the reply lengths from stdin up to an empty line, prints its
/// loopback address, and answers the one connection it accepts until that
/// connection closes.
pub fn echo_serve() -> std::io::Result<()> {
    let mut lens = Vec::new();
    for line in std::io::stdin().lock().lines() {
        let line = line?;
        if line.is_empty() {
            break;
        }
        lens.push(line.parse::<usize>().unwrap_or(0));
    }
    if lens.is_empty() {
        lens.push(0);
    }
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut out = std::io::stdout();
    writeln!(out, "listening on {}", listener.local_addr()?)?;
    out.flush()?;
    let (stream, _) = listener.accept()?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(&stream);
    let mut header = String::new();
    let mut body = Vec::new();
    let mut reply = Vec::new();
    for k in 0.. {
        header.clear();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        let len: usize = header
            .split_whitespace()
            .last()
            .and_then(|t| t.parse().ok())
            .unwrap_or(0);
        body.resize(len, 0);
        reader.read_exact(&mut body)?;
        reply.clear();
        reply.resize(lens[k % lens.len()], b'x');
        reply.push(b'\n');
        (&stream).write_all(&reply)?;
    }
    Ok(())
}

/// Splits `e2e_us` into layer self times per document. `socket_us` is the
/// loopback round trip on request/response workloads and `None` where
/// requests pipeline, and `registry_us` is the publish compile time spread
/// over the documents it shares the loop with.
pub fn decompose(
    layers: &Layers,
    e2e_us: f64,
    socket_us: Option<f64>,
    registry_us: f64,
) -> Decomposition {
    let mut parts = Vec::new();
    if let Some(rtt) = socket_us {
        parts.push(("socket", rtt));
    }
    parts.extend([
        (
            "router",
            (layers.router_open_ns + layers.router_finish_ns) / 1000.0,
        ),
        (
            "service",
            (layers.feed_ns_per_doc - layers.tokenizer_ns_per_doc - layers.validator_ns_per_doc)
                / 1000.0,
        ),
        ("tokenizer", layers.tokenizer_ns_per_doc / 1000.0),
        (
            "validator",
            (layers.validator_ns_per_doc - layers.core_ns_per_doc) / 1000.0,
        ),
        ("core", layers.core_ns_per_doc / 1000.0),
        ("wire", layers.wire_render_ns / 1000.0),
        ("registry", registry_us),
    ]);
    Decomposition::new(e2e_us, parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        let at = |ns: u64| epoch + Duration::from_nanos(ns);
        let root = t.record("request", None, 1, at(0), at(1000));
        let a = t.record("service.feed_bytes", Some(root), 1, at(100), at(600));
        t.record("tokenizer.feed", Some(a), 1, at(150), at(350));
        t.record("wire.render", Some(root), 1, at(700), at(800));
        assert_eq!(t.self_ns("request"), vec![400.0]);
        assert_eq!(t.self_ns("service.feed_bytes"), vec![300.0]);
        assert_eq!(t.self_ns("tokenizer.feed"), vec![200.0]);
        assert_eq!(t.self_ns("wire.render"), vec![100.0]);
    }

    #[test]
    fn decomposition_adds_up_to_end_to_end() {
        let layers = Layers {
            router_open_ns: 120.0,
            router_finish_ns: 80.0,
            feed_ns_per_doc: 9_000.0,
            tokenizer_ns_per_doc: 4_000.0,
            validator_ns_per_doc: 3_000.0,
            core_ns_per_doc: 1_000.0,
            wire_render_ns: 50.0,
            ..Layers::default()
        };
        let d = decompose(&layers, 1080.0, Some(40.0), 0.5);
        let get = |name: &str| d.layers.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!((get("service") - 2.0).abs() < 1e-9);
        assert!((get("validator") - 2.0).abs() < 1e-9);
        assert!((get("core") - 1.0).abs() < 1e-9);
        assert!((get("router") - 0.2).abs() < 1e-9);
        // 40 + 0.2 + 2 + 4 + 2 + 1 + 0.05 + 0.5 = 49.75 explained.
        assert!((d.remainder_us - 1030.25).abs() < 1e-9);
        assert!((d.total_us() - 1080.0).abs() < 1e-9);
        let pipelined = decompose(&layers, 60.0, None, 0.0);
        assert!(pipelined.layers.iter().all(|(n, _)| *n != "socket"));
        assert!((pipelined.total_us() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn layers_some_documents_skip_average_over_the_pool() {
        // Four documents, two rounds; document 3 does not intern, so it is
        // fed (2000 ns) but never validated.
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        let at = |ns: u64| epoch + Duration::from_nanos(ns);
        for request in 0..8u64 {
            t.record("service.feed_bytes", None, request, at(0), at(2000));
            if request % 4 != 3 {
                t.record("validator.validate_events", None, request, at(0), at(1000));
            }
        }
        let feed = t.per_doc_ns("service.feed_bytes", 4);
        let validate = t.per_doc_ns("validator.validate_events", 4);
        assert_eq!(validate.len(), 3);
        let layers = Layers {
            feed_ns_per_doc: pool_mean(&feed, 4),
            validator_ns_per_doc: pool_mean(&validate, 4),
            ..Layers::default()
        };
        assert!((layers.validator_ns_per_doc - 750.0).abs() < 1e-9);
        let d = decompose(&layers, 10.0, None, 0.0);
        let get = |name: &str| d.layers.iter().find(|(n, _)| *n == name).unwrap().1;
        // Feeding costs 2 µs per document, validating 0.75 µs on the pool.
        assert!((get("service") - 1.25).abs() < 1e-9);
        assert!((get("validator") - 0.75).abs() < 1e-9);
        assert!((d.remainder_us - 8.0).abs() < 1e-9);
    }

    #[test]
    fn spans_merge_with_shifted_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.record("x", None, 0, epoch, epoch);
        let mut b = Tracer::new(epoch);
        let root = b.record("request", None, 0, epoch, epoch);
        b.record("router.open", Some(root), 0, epoch, epoch);
        a.extend(b.into_spans());
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}

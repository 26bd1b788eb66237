//! Seeded request generation and the in-process verdict oracle.
//!
//! Every byte the server sees is generated here from the `--seed`: the
//! schema texts it starts with, the documents, and the hash-unique texts
//! it is asked to publish. Before any traffic, the oracle computes the
//! exact response line each request must get by running the same bytes
//! through [`SchemaRouter::validate_bytes`] in process.

use crate::stats::CorpusHash;
use redet_bench::{book_document_events, book_markup_events, events_to_xml, TEXT_RUN};
use redet_schema::registry::Registry;
use redet_schema::{DocEvent, Schema, ServiceLimits, Tag, Tokenizer};
use redet_server::{wire, SchemaRouter};
use redet_workloads::rng::StdRng;
use redet_workloads::{schema_corpus, BOOK_DTD};
use std::sync::Arc;

/// The benchmark's traffic mixes; see `BENCHMARK.json` for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one request outstanding, small element-only documents.
    RrSmall,
    /// Closed loop, two connections with a window each, full-markup books.
    PipeBook,
    /// Open loop across 33 schema ids with invalid documents and publishes.
    TenantChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::RrSmall, Workload::PipeBook, Workload::TenantChurn];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RrSmall => "rr_small",
            Workload::PipeBook => "pipe_book",
            Workload::TenantChurn => "tenant_churn",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Distinct documents generated per workload; requests cycle through them.
fn pool_size(workload: Workload) -> usize {
    match workload {
        Workload::RrSmall => 256,
        Workload::PipeBook => 64,
        Workload::TenantChurn => 512,
    }
}

/// Tenant schema ids served beside `book` on `tenant_churn`.
pub const TENANTS: usize = 32;

/// Distinct texts among the tenant schemas: every text is shared by two
/// tenants, so startup compilation hits the registry cache.
const DISTINCT_TENANT_TEXTS: usize = 16;

/// One generated document request.
#[derive(Clone, Debug)]
pub struct Doc {
    /// Index of the schema id the request names.
    pub schema: usize,
    /// The document bytes (the framed body).
    pub body: Vec<u8>,
    /// The error code the generator broke the document to produce, if any.
    pub intended: Option<&'static str>,
}

/// One step of a request schedule.
#[derive(Clone, Debug)]
pub enum Slot {
    /// Validate pool document `n`.
    Doc(usize),
    /// Publish `text` under schema id `schema`.
    Publish {
        /// Index of the schema id to hot-swap.
        schema: usize,
        /// The DTD text, hash-unique within a server's lifetime.
        text: String,
    },
}

/// A workload's schemas, its document pool and each document's verdict.
#[derive(Debug)]
pub struct Corpus {
    /// The workload this corpus was generated for.
    pub workload: Workload,
    /// Schema ids, in `redet serve --schema` order.
    pub ids: Vec<String>,
    /// Startup DTD text per id.
    pub sources: Vec<String>,
    /// The document pool.
    pub docs: Vec<Doc>,
    /// Expected response line per pool document under the startup schemas.
    pub expected: Vec<String>,
}

impl Corpus {
    /// Generates the corpus for `workload` from `seed` and runs the
    /// oracle over it. Fails when a generated document's verdict is not
    /// the one the generator meant it to have.
    pub fn generate(workload: Workload, seed: u64) -> Result<Corpus, String> {
        let mut ids = vec!["book".to_owned()];
        let mut sources = vec![BOOK_DTD.to_owned()];
        if workload == Workload::TenantChurn {
            let tenants = schema_corpus(DISTINCT_TENANT_TEXTS, TENANTS, seed);
            for (k, text) in tenants.into_iter().enumerate() {
                ids.push(format!("t{k:02}"));
                sources.push(text);
            }
        }
        let book = compile(BOOK_DTD)?;
        let variants: Vec<Variant> = sources[1..]
            .iter()
            .map(|s| Variant::parse(s))
            .collect::<Result<_, _>>()?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_b00c);
        let docs: Vec<Doc> = (0..pool_size(workload))
            .map(|i| {
                let doc_seed = rng.next_u64();
                match workload {
                    Workload::RrSmall => Doc {
                        schema: 0,
                        body: events_to_xml(&book, &book_document_events(&book, 1, doc_seed))
                            .into_bytes(),
                        intended: None,
                    },
                    Workload::PipeBook => Doc {
                        schema: 0,
                        body: events_to_xml(&book, &book_markup_events(&book, 8, doc_seed))
                            .into_bytes(),
                        intended: None,
                    },
                    Workload::TenantChurn => churn_doc(i, &book, &variants, &mut rng, doc_seed),
                }
            })
            .collect();
        let mut corpus = Corpus {
            workload,
            ids,
            sources,
            docs,
            expected: Vec::new(),
        };
        let mut router = corpus.router()?;
        corpus.expected = corpus
            .docs
            .iter()
            .map(|doc| verdict_line(&mut router, &corpus.ids[doc.schema], &doc.body))
            .collect();
        for (i, (doc, line)) in corpus.docs.iter().zip(&corpus.expected).enumerate() {
            let meant = match doc.intended {
                None => line == "ok",
                Some(code) => line.starts_with(&format!("err {code} ")),
            };
            if !meant {
                return Err(format!(
                    "generated document {i} was meant to get {:?} but validates as '{line}'",
                    doc.intended.unwrap_or("ok")
                ));
            }
        }
        Ok(corpus)
    }

    /// A router over the startup schemas, compiled through a registry the
    /// way `redet serve` compiles them.
    pub fn router(&self) -> Result<SchemaRouter, String> {
        let mut registry = Registry::new();
        let mut router = SchemaRouter::new();
        for (id, source) in self.ids.iter().zip(&self.sources) {
            let schema = registry
                .compile(source)
                .map_err(|d| format!("schema '{id}': {}", wire::render_diagnostic(&d)))?;
            router
                .register(id.clone(), schema, ServiceLimits::default())
                .map_err(|d| wire::render_diagnostic(&d))?;
        }
        Ok(router)
    }

    /// The compiled startup schema of every id, in id order.
    pub fn schemas(&self) -> Result<Vec<Arc<Schema>>, String> {
        let router = self.router()?;
        Ok(self
            .ids
            .iter()
            .map(|id| Arc::clone(router.schema(id).expect("registered above")))
            .collect())
    }

    /// The `n`-th publish of a server's lifetime: the schema it targets and
    /// its text. Text `n` is the target's startup text plus one unused
    /// element `pad{n}`, so every publish is a cold compile while every
    /// document keeps its verdict. On `tenant_churn`, even publishes go to
    /// `book` and odd ones rotate over the tenants.
    pub fn publish(&self, n: usize) -> (usize, String) {
        let schema = if self.ids.len() == 1 || n.is_multiple_of(2) {
            0
        } else {
            1 + (n / 2) % (self.ids.len() - 1)
        };
        let text = format!("{}\n<!ELEMENT pad{n} EMPTY>\n", self.sources[schema]);
        (schema, text)
    }

    /// The first `slots` steps of the open-loop schedule: documents in
    /// pool order with a publish in every `publish_every`-th slot.
    pub fn schedule(&self, slots: usize, publish_every: usize) -> Vec<Slot> {
        let mut docs = 0;
        let mut publishes = 0;
        (0..slots)
            .map(|k| {
                if k % publish_every == publish_every - 1 {
                    let (schema, text) = self.publish(publishes);
                    publishes += 1;
                    Slot::Publish { schema, text }
                } else {
                    docs += 1;
                    Slot::Doc((docs - 1) % self.docs.len())
                }
            })
            .collect()
    }

    /// The expected response line of every slot, computed by replaying the
    /// schedule in order: publishes swap schemas exactly where the server
    /// will swap them on the connection.
    pub fn oracle(&self, schedule: &[Slot]) -> Result<Vec<String>, String> {
        let mut router = self.router()?;
        let mut registry = Registry::new();
        Ok(schedule
            .iter()
            .map(|slot| match slot {
                Slot::Doc(n) => {
                    let doc = &self.docs[*n];
                    verdict_line(&mut router, &self.ids[doc.schema], &doc.body)
                }
                Slot::Publish { schema, text } => {
                    let outcome = registry
                        .compile(text)
                        .and_then(|s| router.publish(&self.ids[*schema], s).map(|_| ()));
                    wire::render_verdict(&outcome)
                }
            })
            .collect())
    }

    /// The framed wire request for pool document `n`.
    pub fn request(&self, n: usize) -> Vec<u8> {
        let doc = &self.docs[n];
        frame("V", &self.ids[doc.schema], &doc.body)
    }

    /// Hash over the schema texts and the document pool.
    pub fn hash(&self) -> CorpusHash {
        let mut hash = CorpusHash::default();
        for (id, source) in self.ids.iter().zip(&self.sources) {
            hash.add(id.as_bytes());
            hash.add(source.as_bytes());
        }
        for doc in &self.docs {
            hash.add(&doc.body);
        }
        hash
    }

    /// Total body bytes of the pool.
    pub fn pool_bytes(&self) -> usize {
        self.docs.iter().map(|d| d.body.len()).sum()
    }

    /// Index of the first pool document expected to be `ok`.
    pub fn first_ok(&self) -> usize {
        self.expected
            .iter()
            .position(|line| line == "ok")
            .expect("every pool holds valid documents")
    }
}

/// A framed request: `<op> <id> <len>\n<body>`.
pub fn frame(op: &str, id: &str, body: &[u8]) -> Vec<u8> {
    let mut request = format!("{op} {id} {}\n", body.len()).into_bytes();
    request.extend_from_slice(body);
    request
}

/// The response line (without `\n`) the server must write for `body`.
fn verdict_line(router: &mut SchemaRouter, id: &str, body: &[u8]) -> String {
    wire::render_verdict(&router.validate_bytes(id, body))
}

fn compile(source: &str) -> Result<Arc<Schema>, String> {
    Registry::new()
        .compile(source)
        .map_err(|d| wire::render_diagnostic(&d))
}

/// The shape of one `schema_corpus` variant: `<!ELEMENT rec{i} (f{i}_0,
/// f{i}_1?, f{i}_2*, …)>` followed by one `(#PCDATA)` declaration per
/// field.
#[derive(Debug)]
struct Variant {
    root: String,
    /// Field names with their occurrence suffix (`' '` for exactly once).
    fields: Vec<(String, char)>,
}

impl Variant {
    fn parse(source: &str) -> Result<Variant, String> {
        let bad = || format!("unexpected schema_corpus variant shape: {source:?}");
        let first = source.lines().next().ok_or_else(bad)?;
        let decl = first.strip_prefix("<!ELEMENT ").ok_or_else(bad)?;
        let (root, model) = decl.split_once(' ').ok_or_else(bad)?;
        let model = model
            .strip_prefix('(')
            .and_then(|m| m.strip_suffix(")>"))
            .ok_or_else(bad)?;
        let fields = model
            .split(',')
            .map(|f| {
                let f = f.trim();
                match f.strip_suffix(['?', '*']) {
                    Some(name) => (name.to_owned(), f.chars().last().unwrap_or(' ')),
                    None => (f.to_owned(), ' '),
                }
            })
            .collect();
        Ok(Variant {
            root: root.to_owned(),
            fields,
        })
    }
}

/// Character-data fragments dense in predefined entities and character
/// references.
const FRAGMENTS: [&str; 8] = [
    "fish &amp; chips",
    "&lt;tag&gt;",
    "&quot;quoted&quot;",
    "it&apos;s",
    "&#65;&#x42;C",
    "caf&#xE9;",
    "plain words",
    "x &#38; y",
];

/// A run of three to six entity-dense fragments.
fn entity_text(rng: &mut StdRng) -> String {
    let n = rng.gen_range(3..7usize);
    (0..n)
        .map(|_| FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())])
        .collect::<Vec<_>>()
        .join(" ")
}

/// The ways `tenant_churn` breaks a document, with the code each must get.
const INVALID: [&str; 8] = [
    "E207", "E201", "E202", "E203", "E211", "E208", "E209", "E206",
];

/// Pool document `i` of `tenant_churn`: every fourth is broken, rotating
/// over [`INVALID`]; every third of the rest is an entity-dense book of one
/// or two chapters, and the others go to the tenants. The fixed
/// proportions keep the mix, and so the bytes per document, nearly the
/// same under every seed.
fn churn_doc(
    i: usize,
    book: &Schema,
    variants: &[Variant],
    rng: &mut StdRng,
    doc_seed: u64,
) -> Doc {
    let broken = (i % 4 == 3).then(|| INVALID[(i / 4) % INVALID.len()]);
    // Duplicate attributes need declared ones: only `book` declares any.
    let to_book = broken == Some("E209") || (broken.is_none() && i.is_multiple_of(3));
    if to_book {
        let chapters = 1 + i % 2;
        let xml = events_to_xml(book, &book_markup_events(book, chapters, doc_seed));
        let mut body = String::with_capacity(xml.len() * 2);
        let mut parts = xml.split(TEXT_RUN);
        body.push_str(parts.next().unwrap_or_default());
        for part in parts {
            body.push_str(&entity_text(rng));
            body.push_str(part);
        }
        if broken.is_some() {
            body = body.replacen("<book", "<book lang=\"a\" lang=\"b\"", 1);
        }
        return Doc {
            schema: 0,
            body: body.into_bytes(),
            intended: broken,
        };
    }
    let t = rng.gen_range(0..variants.len());
    let v = &variants[t];
    let root = &v.root;
    let mut fields = String::new();
    for (j, (name, suffix)) in v.fields.iter().enumerate() {
        let count = match suffix {
            '?' => rng.gen_range(0..2usize),
            '*' => rng.gen_range(0..4usize),
            _ => 1,
        };
        for _ in 0..count {
            let text = entity_text(rng);
            let element = match broken {
                Some("E207") if j == 0 => format!("<{name}>&bogus; {text}</{name}>"),
                Some("E202") if j == 0 => format!("<{name}>{text}</{name}><{name}>{text}</{name}>"),
                Some("E206") if j == 0 => format!("<{name}>{text}</{name}x>"),
                Some("E203") if j == 0 => String::new(),
                _ => format!("<{name}>{text}</{name}>"),
            };
            fields.push_str(&element);
        }
    }
    let body = match broken {
        Some("E201") => format!("<{root}><zz/>{fields}</{root}>"),
        Some("E203") => format!("<{root}></{root}>"),
        Some("E211") => format!("<{root}>stray &amp; text{fields}</{root}>"),
        Some("E208") => format!("<{root} zz=\"1\">{fields}</{root}>"),
        _ => format!("<{root}>{fields}</{root}>"),
    };
    Doc {
        schema: 1 + t,
        body: body.into_bytes(),
        intended: broken,
    }
}

/// Interns a document's bytes into the event stream the validator takes,
/// coalescing text segments into one [`DocEvent::Text`] per run the way
/// the byte path counts them. `None` when a name is outside the schema or
/// the markup does not tokenize: such documents have no event form.
pub fn intern(schema: &Schema, body: &[u8]) -> Option<Vec<DocEvent>> {
    let mut events = Vec::new();
    let mut open = Vec::new();
    let mut ok = true;
    let mut in_text = false;
    let mut tokenizer = Tokenizer::default();
    let mut sink = |tag: Tag<'_>| {
        let event = match tag {
            Tag::Open(name) => schema.lookup_bytes(name).map(|sym| {
                open.push(sym);
                DocEvent::Open(sym)
            }),
            Tag::Attr { name, .. } => schema.lookup_bytes(name).map(DocEvent::Attr),
            Tag::SelfClose => open.pop().map(|_| DocEvent::Close),
            Tag::Close(name) => open
                .pop()
                .filter(|&sym| schema.name(sym).as_bytes() == name)
                .map(|_| DocEvent::Close),
            Tag::Text(segment) => {
                if in_text || segment.iter().all(u8::is_ascii_whitespace) {
                    return true;
                }
                Some(DocEvent::Text)
            }
            Tag::Error(_) => None,
        };
        in_text = matches!(event, Some(DocEvent::Text));
        match event {
            Some(e) => {
                events.push(e);
                true
            }
            None => {
                ok = false;
                false
            }
        }
    };
    tokenizer.feed(body, &mut sink);
    (ok && tokenizer.is_idle()).then_some(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use redet_schema::registry::Provenance;

    #[test]
    fn generation_is_seed_deterministic() {
        for workload in Workload::ALL {
            let a = Corpus::generate(workload, 7).unwrap();
            let b = Corpus::generate(workload, 7).unwrap();
            let c = Corpus::generate(workload, 8).unwrap();
            assert_eq!(a.hash().hex(), b.hash().hex(), "{workload:?}");
            assert_eq!(a.expected, b.expected, "{workload:?}");
            assert_ne!(a.hash().hex(), c.hash().hex(), "{workload:?}");
        }
    }

    #[test]
    fn small_documents_are_small_and_valid() {
        let corpus = Corpus::generate(Workload::RrSmall, 1).unwrap();
        let mean = corpus.pool_bytes() / corpus.docs.len();
        assert!((300..=700).contains(&mean), "mean body {mean} bytes");
        assert!(corpus.expected.iter().all(|line| line == "ok"));
    }

    #[test]
    fn churn_mixes_tenants_entities_and_every_invalid_kind() {
        let corpus = Corpus::generate(Workload::TenantChurn, 3).unwrap();
        assert_eq!(corpus.ids.len(), 1 + TENANTS);
        let invalid = corpus.docs.iter().filter(|d| d.intended.is_some()).count();
        assert_eq!(invalid, corpus.docs.len() / 4);
        for code in INVALID {
            assert!(
                corpus.docs.iter().any(|d| d.intended == Some(code)),
                "{code} missing"
            );
        }
        let tenant_docs = corpus.docs.iter().filter(|d| d.schema > 0).count();
        assert!(tenant_docs > corpus.docs.len() / 2);
        let with_refs = corpus
            .docs
            .iter()
            .filter(|d| {
                d.body
                    .windows(2)
                    .any(|w| w == b"&#" || w == b"&a" || w == b"&l")
            })
            .count();
        assert!(with_refs > corpus.docs.len() * 3 / 4, "{with_refs}");
    }

    #[test]
    fn publishes_are_hash_unique_cold_compiles() {
        let corpus = Corpus::generate(Workload::TenantChurn, 5).unwrap();
        let mut registry = Registry::new();
        for source in &corpus.sources {
            registry.compile(source).unwrap();
        }
        let startup = registry.stats();
        // Tenants share texts pairwise, so startup already hits the cache.
        assert_eq!(startup.hits as usize, TENANTS - DISTINCT_TENANT_TEXTS);
        let schedule = corpus.schedule(2_000, 20);
        let publishes: Vec<&String> = schedule
            .iter()
            .filter_map(|slot| match slot {
                Slot::Publish { text, .. } => Some(text),
                Slot::Doc(_) => None,
            })
            .collect();
        assert_eq!(publishes.len(), 100);
        for text in &publishes {
            let (_, provenance) = registry.compile_traced(text).unwrap();
            assert_eq!(provenance, Provenance::Compiled);
        }
        let after = registry.stats();
        assert_eq!(after.misses - startup.misses, publishes.len() as u64);
        assert_eq!(after.hits, startup.hits);
    }

    #[test]
    fn publishes_leave_every_verdict_unchanged() {
        let corpus = Corpus::generate(Workload::TenantChurn, 11).unwrap();
        let schedule = corpus.schedule(3_000, 20);
        let expected = corpus.oracle(&schedule).unwrap();
        for (slot, line) in schedule.iter().zip(&expected) {
            match slot {
                Slot::Doc(n) => assert_eq!(line, &corpus.expected[*n]),
                Slot::Publish { .. } => assert_eq!(line, "ok"),
            }
        }
    }

    #[test]
    fn interning_matches_the_byte_path() {
        let corpus = Corpus::generate(Workload::TenantChurn, 2).unwrap();
        let schemas = corpus.schemas().unwrap();
        let mut interned = 0;
        for (doc, line) in corpus.docs.iter().zip(&corpus.expected) {
            let schema = &schemas[doc.schema];
            if let Some(events) = intern(schema, &doc.body) {
                interned += 1;
                let verdict = schema.validator().validate_events(&events);
                assert_eq!(verdict.is_ok(), line == "ok", "{line}");
            }
        }
        assert!(interned > corpus.docs.len() * 3 / 4);
    }
}

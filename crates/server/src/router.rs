//! Multi-schema dispatch: one [`ValidationService`] per registered schema,
//! routed by the schema id carried in every handle's generation word.
//!
//! A deployment serves more than one document type. The router holds a
//! small registry of `(schema id, ValidationService)` pairs — each service
//! tagged with its registry index via [`ValidationService::set_tag`] — and
//! exposes the same handle-shaped surface as a single service. Opening
//! names a schema; every later operation recovers the owning service from
//! [`DocId::tag`] alone, so the front end tracks nothing per connection
//! beyond the handle itself.
//!
//! Registration is a startup concern (`redet serve --schemas …` loads DTD
//! files before binding the socket); after that the router is all hot
//! path: routing is one bounds-checked index. [`SchemaRouter::tick`]
//! forwards the logical clock to every service so idle sweeping governs
//! all schemas uniformly.

use redet_core::{Code, Diagnostic};
use redet_schema::{DocId, FeedStatus, Schema, ServiceLimits, ValidationService};
use std::sync::Arc;

/// One registered schema: its wire id and its dedicated service.
struct Entry {
    id: String,
    schema: Arc<Schema>,
    service: ValidationService,
}

/// A registry of validation services keyed by schema id; see the module
/// docs.
#[derive(Default)]
pub struct SchemaRouter {
    entries: Vec<Entry>,
}

impl SchemaRouter {
    /// Creates an empty router.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `schema` under the wire id `id`, governed by `limits`,
    /// and returns its routing tag (the registry index). Ids must be
    /// unique ([`Code::DuplicateSchema`]) and the registry is capped at
    /// `u16::MAX` entries — the width of the tag field in the handle's
    /// generation word.
    pub fn register(
        &mut self,
        id: impl Into<String>,
        schema: Arc<Schema>,
        limits: ServiceLimits,
    ) -> Result<u16, Diagnostic> {
        let id = id.into();
        if self.entries.iter().any(|entry| entry.id == id) {
            return Err(Diagnostic::new(
                Code::DuplicateSchema,
                format!("schema id '{id}' is already registered"),
            ));
        }
        let Ok(tag) = u16::try_from(self.entries.len()) else {
            return Err(Diagnostic::new(
                Code::DuplicateSchema,
                "schema registry is full (65535 schemas)",
            ));
        };
        let mut service = ValidationService::with_limits(Arc::clone(&schema), limits);
        service.set_tag(tag);
        self.entries.push(Entry {
            id,
            schema,
            service,
        });
        Ok(tag)
    }

    /// Hot-swaps the schema registered under `id`: documents already in
    /// flight keep validating against the artifact they opened under, new
    /// opens bind `schema`, and the old artifact drops when its last
    /// in-flight handle finishes (see
    /// [`ValidationService::swap_schema`]). Returns the entry's routing
    /// tag; unknown ids refuse with [`Code::UnknownSchema`] — a publish
    /// never creates a new wire id, so a fleet's id set stays a startup
    /// decision.
    pub fn publish(&mut self, id: &str, schema: Arc<Schema>) -> Result<u16, Diagnostic> {
        match self
            .entries
            .iter_mut()
            .enumerate()
            .find(|(_, entry)| entry.id == id)
        {
            Some((tag, entry)) => {
                entry.service.swap_schema(Arc::clone(&schema));
                entry.schema = schema;
                Ok(tag as u16)
            }
            None => Err(Diagnostic::new(
                Code::UnknownSchema,
                format!("no schema registered under id '{id}'"),
            )),
        }
    }

    /// Number of registered schemas.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no schema is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The registered schema ids, in registration (tag) order.
    pub fn ids(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|entry| entry.id.as_str())
    }

    /// The schema registered under `id`, if any.
    #[must_use]
    pub fn schema(&self, id: &str) -> Option<&Arc<Schema>> {
        self.entries
            .iter()
            .find(|entry| entry.id == id)
            .map(|entry| &entry.schema)
    }

    /// Opens an in-flight document against the schema registered under
    /// `id`. Refuses with [`Code::UnknownSchema`] for unregistered ids and
    /// forwards the service's own [`Code::ServiceOverloaded`] backpressure
    /// at the in-flight cap.
    pub fn open(&mut self, id: &str) -> Result<DocId, Diagnostic> {
        match self.entries.iter_mut().find(|entry| entry.id == id) {
            Some(entry) => entry.service.try_open(),
            None => Err(Diagnostic::new(
                Code::UnknownSchema,
                format!("no schema registered under id '{id}'"),
            )),
        }
    }

    /// Routes [`ValidationService::feed_bytes`] to the handle's service.
    #[must_use = "a rejected document should stop being fed"]
    pub fn feed_bytes(&mut self, doc: DocId, bytes: &[u8]) -> FeedStatus {
        self.service_of_mut(doc).feed_bytes(doc, bytes)
    }

    /// Routes [`ValidationService::finish`] to the handle's service.
    #[must_use = "the validation verdict is the point of finish()"]
    pub fn finish(&mut self, doc: DocId) -> Result<(), Diagnostic> {
        self.service_of_mut(doc).finish(doc)
    }

    /// Routes [`ValidationService::close`] to the handle's service.
    pub fn close(&mut self, doc: DocId) {
        self.service_of_mut(doc).close(doc);
    }

    /// Routes [`ValidationService::is_swept`] to the handle's service.
    #[must_use]
    pub fn is_swept(&self, doc: DocId) -> bool {
        self.service_of(doc).is_swept(doc)
    }

    /// Advances the logical clock of **every** registered service and
    /// sweeps their idle handles; returns the total number swept.
    pub fn tick(&mut self, now: u64) -> usize {
        self.entries
            .iter_mut()
            .map(|entry| entry.service.tick(now))
            .sum()
    }

    /// Total in-flight documents across all registered services.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.entries
            .iter()
            .map(|entry| entry.service.in_flight())
            .sum()
    }

    /// Validates one whole raw-byte document against the schema under
    /// `id`: open + feed + finish in one call, admission-checked — the
    /// loop the wire protocol runs per request, also rendered by
    /// [`crate::wire::render_verdict`].
    pub fn validate_bytes(&mut self, id: &str, bytes: &[u8]) -> Result<(), Diagnostic> {
        let doc = self.open(id)?;
        let _ = self.feed_bytes(doc, bytes);
        self.finish(doc)
    }

    /// The service that issued `doc`, recovered from the handle's tag.
    ///
    /// # Panics
    /// Panics if the tag names no registered schema — a handle from a
    /// different router, the same programming-error contract as mixing
    /// handles across services.
    fn service_of(&self, doc: DocId) -> &ValidationService {
        &self
            .entries
            .get(doc.tag() as usize)
            .expect("DocId tag names no schema registered with this router")
            .service
    }

    /// Mutable [`SchemaRouter::service_of`].
    fn service_of_mut(&mut self, doc: DocId) -> &mut ValidationService {
        &mut self
            .entries
            .get_mut(doc.tag() as usize)
            .expect("DocId tag names no schema registered with this router")
            .service
    }
}

impl std::fmt::Debug for SchemaRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchemaRouter")
            .field(
                "schemas",
                &self.entries.iter().map(|e| &e.id).collect::<Vec<_>>(),
            )
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;
    use redet_schema::SchemaBuilder;

    fn pair_schema() -> Arc<Schema> {
        SchemaBuilder::new()
            .element("pair", "(left, right)")
            .element_empty("left")
            .element_empty("right")
            .build()
            .unwrap()
    }

    fn list_schema() -> Arc<Schema> {
        SchemaBuilder::new()
            .element("list", "(item)*")
            .element_empty("item")
            .build()
            .unwrap()
    }

    #[test]
    fn handles_route_to_their_schema() {
        let mut router = SchemaRouter::new();
        assert_eq!(
            router
                .register("pair", pair_schema(), ServiceLimits::default())
                .unwrap(),
            0
        );
        assert_eq!(
            router
                .register("list", list_schema(), ServiceLimits::default())
                .unwrap(),
            1
        );
        assert_eq!(router.len(), 2);
        assert_eq!(router.ids().collect::<Vec<_>>(), ["pair", "list"]);

        // Interleave two documents of different schemas; the tag routes.
        let p = router.open("pair").unwrap();
        let l = router.open("list").unwrap();
        assert_eq!(p.tag(), 0);
        assert_eq!(l.tag(), 1);
        assert_eq!(router.feed_bytes(p, b"<pair><left/>"), FeedStatus::NeedMore);
        assert_eq!(router.feed_bytes(l, b"<list><item/>"), FeedStatus::NeedMore);
        assert_eq!(
            router.feed_bytes(p, b"<right/></pair>"),
            FeedStatus::Accepted
        );
        assert_eq!(router.feed_bytes(l, b"</list>"), FeedStatus::Accepted);
        assert!(router.finish(p).is_ok());
        assert!(router.finish(l).is_ok());
        assert_eq!(router.in_flight(), 0);

        // A pair document is not a list document.
        assert!(router
            .validate_bytes("pair", b"<pair><left/><right/></pair>")
            .is_ok());
        let err = router
            .validate_bytes("list", b"<pair><left/><right/></pair>")
            .unwrap_err();
        assert_eq!(err.code(), Code::UnknownElement);
    }

    #[test]
    fn unknown_and_duplicate_schemas_are_diagnostics() {
        let mut router = SchemaRouter::new();
        router
            .register("pair", pair_schema(), ServiceLimits::default())
            .unwrap();
        let dup = router
            .register("pair", list_schema(), ServiceLimits::default())
            .unwrap_err();
        assert_eq!(dup.code(), Code::DuplicateSchema);
        let unknown = router.open("nope").unwrap_err();
        assert_eq!(unknown.code(), Code::UnknownSchema);
        assert_eq!(
            wire::render_diagnostic(&unknown),
            "err E103 - no schema registered under id 'nope'"
        );
    }

    #[test]
    fn publish_swaps_in_flight_safe() {
        let mut router = SchemaRouter::new();
        router
            .register("doc", pair_schema(), ServiceLimits::default())
            .unwrap();

        // Open under v1 (pair), feed half of a pair document.
        let old = router.open("doc").unwrap();
        assert_eq!(
            router.feed_bytes(old, b"<pair><left/>"),
            FeedStatus::NeedMore
        );

        // Hot-swap v2 (list) mid-flight; the tag is stable.
        assert_eq!(router.publish("doc", list_schema()).unwrap(), 0);
        assert!(Arc::ptr_eq(
            router.schema("doc").unwrap(),
            router.schema("doc").unwrap()
        ));

        // The in-flight document still validates as a pair…
        assert_eq!(
            router.feed_bytes(old, b"<right/></pair>"),
            FeedStatus::Accepted
        );
        assert!(router.finish(old).is_ok());

        // …while a post-publish open rejects it under the list schema.
        let new = router.open("doc").unwrap();
        let _ = router.feed_bytes(new, b"<pair><left/><right/></pair>");
        assert_eq!(router.finish(new).unwrap_err().code(), Code::UnknownElement);

        let unknown = router.publish("nope", pair_schema()).unwrap_err();
        assert_eq!(unknown.code(), Code::UnknownSchema);
    }

    #[test]
    fn ticks_sweep_every_schema() {
        let limits = ServiceLimits::default().with_idle_budget(1);
        let mut router = SchemaRouter::new();
        router.register("pair", pair_schema(), limits).unwrap();
        router.register("list", list_schema(), limits).unwrap();
        let p = router.open("pair").unwrap();
        let l = router.open("list").unwrap();
        assert_eq!(router.feed_bytes(p, b"<pair>"), FeedStatus::NeedMore);
        assert_eq!(router.feed_bytes(l, b"<list>"), FeedStatus::NeedMore);
        assert_eq!(router.tick(5), 2);
        assert!(router.is_swept(p) && router.is_swept(l));
        assert_eq!(router.finish(p).unwrap_err().code(), Code::IdleTimeout);
        assert_eq!(router.finish(l).unwrap_err().code(), Code::IdleTimeout);
        assert_eq!(router.in_flight(), 0);
    }
}

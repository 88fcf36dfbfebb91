//! Multi-tenant routing: one [`TemplarService`] per database, addressed by
//! tenant id.
//!
//! ```text
//!             JSON line                 ┌──────────────────────────────┐
//!  client ──► {"version":2, ...} ────► │ TenantRegistry               │
//!             handle_line()            │   "mas"  ─► TemplarService A │
//!                                      │   "imdb" ─► TemplarService B │
//!             {"version":2, ok,…} ◄─── │   "yelp" ─► TemplarService C │
//!  client ◄── response line            └──────────────────────────────┘
//! ```
//!
//! The registry owns the request/response boundary: it decodes envelopes,
//! rejects protocol-version mismatches, routes by tenant id, applies the
//! request's per-tenant service, and projects every failure onto the
//! [`ApiError`] taxonomy.  Registration and lookup are guarded by a plain
//! `RwLock` — registration is rare, lookups clone an `Arc`, and the actual
//! translation work runs entirely outside the lock.

use crate::metrics::{prometheus_text, HealthState};
use crate::server::TemplarService;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;
use templar_api::{
    decode_request, encode_response, ApiError, HealthReport, MetricsReport, RequestBody,
    ResponseBody, ResponseEnvelope, SlowQueryReport, TranslateRequest, TranslateResponse,
};

/// Routes requests to one [`TemplarService`] per tenant (database).
#[derive(Default)]
pub struct TenantRegistry {
    tenants: RwLock<BTreeMap<String, Arc<TemplarService>>>,
}

impl TenantRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a tenant's service under an id, returning the shared handle.
    /// Re-registering an id replaces the previous service (its in-flight
    /// snapshots stay alive until their readers drop).
    pub fn register(
        &self,
        tenant: impl Into<String>,
        service: TemplarService,
    ) -> Arc<TemplarService> {
        let service = Arc::new(service);
        self.tenants
            .write()
            .insert(tenant.into(), Arc::clone(&service));
        service
    }

    /// Resolve a tenant id.
    pub fn get(&self, tenant: &str) -> Result<Arc<TemplarService>, ApiError> {
        self.tenants
            .read()
            .get(tenant)
            .map(Arc::clone)
            .ok_or_else(|| ApiError::UnknownTenant {
                tenant: tenant.to_string(),
            })
    }

    /// The registered tenant ids, sorted.
    pub fn tenant_ids(&self) -> Vec<String> {
        self.tenants.read().keys().cloned().collect()
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.read().len()
    }

    /// True when no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.tenants.read().is_empty()
    }

    /// Route one typed translation request.
    pub fn translate(&self, request: &TranslateRequest) -> Result<TranslateResponse, ApiError> {
        self.get(&request.tenant)?.translate_request(request)
    }

    /// Route one SQL ingestion.  A full tenant queue surfaces as
    /// [`ApiError::Backpressure`].
    pub fn submit_sql(&self, tenant: &str, sql: &str) -> Result<(), ApiError> {
        self.get(tenant)?.submit_sql(sql).map_err(ApiError::from)
    }

    /// Route one accepted-SQL feedback entry: same durable ingest path as
    /// [`TenantRegistry::submit_sql`], counted under `feedback_accepted`.
    pub fn feedback(&self, tenant: &str, sql: &str) -> Result<(), ApiError> {
        self.get(tenant)?
            .submit_feedback(sql)
            .map_err(ApiError::from)
    }

    /// Fetch one tenant's serving metrics in wire form.
    pub fn metrics(&self, tenant: &str) -> Result<MetricsReport, ApiError> {
        Ok(self.get(tenant)?.metrics())
    }

    /// Fetch one tenant's write-availability state in wire form.
    pub fn health(&self, tenant: &str) -> Result<HealthReport, ApiError> {
        Ok(health_report(&self.get(tenant)?.metrics()))
    }

    /// Fetch one tenant's captured slow queries, slowest first.
    pub fn slow_queries(&self, tenant: &str) -> Result<Vec<SlowQueryReport>, ApiError> {
        Ok(self.get(tenant)?.slow_queries())
    }

    /// A Prometheus text-format exposition: one tenant, or every registered
    /// tenant assembled into a single exposition (each metric family's
    /// `# HELP`/`# TYPE` header appears exactly once, with one sample per
    /// tenant under the `tenant` label).
    pub fn prometheus(&self, tenant: Option<&str>) -> Result<String, ApiError> {
        match tenant {
            Some(tenant) => Ok(prometheus_text(&[(tenant, &self.get(tenant)?.metrics())])),
            None => {
                let services: Vec<(String, Arc<TemplarService>)> = self
                    .tenants
                    .read()
                    .iter()
                    .map(|(id, service)| (id.clone(), Arc::clone(service)))
                    .collect();
                let reports: Vec<(String, MetricsReport)> = services
                    .iter()
                    .map(|(id, service)| (id.clone(), service.metrics()))
                    .collect();
                let refs: Vec<(&str, &MetricsReport)> = reports
                    .iter()
                    .map(|(id, report)| (id.as_str(), report))
                    .collect();
                Ok(prometheus_text(&refs))
            }
        }
    }

    /// Reserve one slot of the tenant's in-flight quota
    /// ([`crate::ServiceConfig::max_inflight`]).  A full quota sheds with
    /// [`ApiError::Backpressure`] and counts an `admission_tenant_shed`.
    /// The permit releases its slot on drop; hold it across the operation
    /// it admits.
    pub fn admit(&self, tenant: &str) -> Result<crate::InflightPermit, ApiError> {
        self.get(tenant)?.try_admit().ok_or(ApiError::Backpressure)
    }

    /// Count one request turned away by a serving plane's *global*
    /// in-flight cap against the tenant it targeted, so global sheds are
    /// attributable per tenant in the Prometheus exposition.
    pub fn record_global_shed(&self, tenant: &str) {
        if let Ok(service) = self.get(tenant) {
            service.record_global_shed();
        }
    }

    /// Execute one decoded operation.  This is the single entry point every
    /// transport (the in-process [`handle_line`](Self::handle_line) path and
    /// a network serving plane alike) routes through, so codecs cannot
    /// drift in behaviour.
    pub fn dispatch(&self, body: &RequestBody) -> Result<ResponseBody, ApiError> {
        match body {
            RequestBody::Translate(request) => {
                self.translate(request).map(ResponseBody::Translated)
            }
            RequestBody::SubmitSql { tenant, sql } => self
                .submit_sql(tenant, sql)
                .map(|()| ResponseBody::SqlAccepted),
            RequestBody::Feedback { tenant, sql } => self
                .feedback(tenant, sql)
                .map(|()| ResponseBody::FeedbackAccepted),
            RequestBody::Metrics { tenant } => self
                .metrics(tenant)
                .map(|report| ResponseBody::Metrics(Box::new(report))),
            RequestBody::SlowQueries { tenant } => {
                self.slow_queries(tenant).map(ResponseBody::SlowQueries)
            }
            RequestBody::Prometheus { tenant } => self
                .prometheus(tenant.as_deref())
                .map(ResponseBody::Prometheus),
            RequestBody::Health { tenant } => self.health(tenant).map(ResponseBody::Health),
        }
    }

    /// Serve one JSON protocol line, producing exactly one response line.
    /// Never fails: every error becomes the `err` arm of a response
    /// envelope, echoing the request's correlation id when it could be
    /// recovered.
    ///
    /// Admission-controlled operations pass through the tenant's in-flight
    /// quota exactly as they do on the network plane, so an in-process
    /// client observes the same `Backpressure` semantics as a socket.
    pub fn handle_line(&self, line: &str) -> String {
        let envelope = match decode_request(line) {
            Ok(envelope) => envelope,
            Err((id, err)) => return encode_response(&ResponseEnvelope::failure(id, err)),
        };
        let id = envelope.id;
        let outcome = self.admit_and_dispatch(&envelope.body);
        let response = match outcome {
            Ok(body) => ResponseEnvelope::success(id, body),
            Err(err) => ResponseEnvelope::failure(id, err),
        };
        encode_response(&response)
    }

    /// [`dispatch`](Self::dispatch), behind the tenant's in-flight quota for
    /// operations that consume work capacity.
    pub fn admit_and_dispatch(&self, body: &RequestBody) -> Result<ResponseBody, ApiError> {
        let _permit = match body.tenant() {
            Some(tenant) if body.is_admission_controlled() => Some(self.admit(tenant)?),
            _ => None,
        };
        self.dispatch(body)
    }
}

/// Project a tenant's metrics report onto the `Health` wire payload.
fn health_report(report: &MetricsReport) -> HealthReport {
    HealthReport {
        state: HealthState::from_gauge(report.health_state)
            .name()
            .to_string(),
        health_state: report.health_state,
        degraded_entries_total: report.degraded_entries_total,
        journal_retries_total: report.journal_retries_total,
        journal_heals_total: report.journal_heals_total,
        wal_io_errors: report.wal_io_errors,
        wal_last_errno: report.wal_last_errno,
    }
}

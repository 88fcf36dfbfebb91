//! An in-process client for the JSON line protocol.
//!
//! [`RegistryClient`] speaks to a [`TenantRegistry`] *through the wire
//! encoding*: every call serializes a request envelope, hands the line to
//! the registry, and decodes the response line.  In-process it exists so
//! examples and tests exercise exactly the bytes a remote client would send;
//! a socket transport only needs to replace the `handle_line` hop.

use crate::registry::TenantRegistry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use templar_api::{
    decode_response, encode_request, ApiError, HealthReport, MetricsReport, RequestBody,
    RequestEnvelope, ResponseBody, SlowQueryReport, TranslateRequest, TranslateResponse,
};

/// Is `error` a transient serving condition worth retrying — the queue is
/// momentarily full ([`ApiError::Backpressure`]) or the tenant is riding out
/// a journal failure in read-only mode ([`ApiError::Degraded`])?  Everything
/// else (bad requests, unknown tenants, durability faults) is final.
pub fn is_retryable(error: &ApiError) -> bool {
    matches!(error, ApiError::Backpressure | ApiError::Degraded)
}

/// Run `op` until it succeeds, returns an error `retryable` rejects, or
/// `deadline` elapses — whichever comes first.  Between attempts the loop
/// sleeps with exponential backoff from `base` (doubling, capped at one
/// second), clipped to the time remaining, so a caller-supplied deadline is
/// honoured even when the service stays degraded for its whole span.  The
/// terminal error is the last one observed (so a deadline expiry still
/// reports *why* the service was refusing writes).
///
/// Each client passes its own classifier: [`is_retryable`] here, and
/// `templar_server::is_retryable` for socket errors.
pub fn retry_with_deadline<T, E>(
    deadline: Duration,
    base: Duration,
    retryable: impl Fn(&E) -> bool,
    mut op: impl FnMut() -> Result<T, E>,
) -> Result<T, E> {
    let started = Instant::now();
    let mut backoff = base.max(Duration::from_micros(100));
    loop {
        match op() {
            Ok(value) => return Ok(value),
            Err(error) if !retryable(&error) => return Err(error),
            Err(error) => {
                let elapsed = started.elapsed();
                if elapsed >= deadline {
                    return Err(error);
                }
                std::thread::sleep(backoff.min(deadline - elapsed));
                backoff = (backoff * 2).min(Duration::from_secs(1));
            }
        }
    }
}

/// A typed client over the line protocol, bound to one registry.
pub struct RegistryClient<'a> {
    registry: &'a TenantRegistry,
    next_id: AtomicU64,
}

impl<'a> RegistryClient<'a> {
    /// A client with correlation ids starting at 1.
    pub fn new(registry: &'a TenantRegistry) -> Self {
        RegistryClient {
            registry,
            next_id: AtomicU64::new(1),
        }
    }

    fn roundtrip(&self, body: RequestBody) -> Result<ResponseBody, ApiError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let line = encode_request(&RequestEnvelope::new(id, body));
        let response_line = self.registry.handle_line(&line);
        let envelope = decode_response(&response_line)?;
        debug_assert!(
            envelope.id == id || envelope.id == 0,
            "response correlation id must echo the request"
        );
        envelope.into_result()
    }

    /// Translate one request, through the wire encoding and back.
    pub fn translate(&self, request: TranslateRequest) -> Result<TranslateResponse, ApiError> {
        match self.roundtrip(RequestBody::Translate(request))? {
            ResponseBody::Translated(response) => Ok(response),
            other => Err(ApiError::MalformedEnvelope {
                detail: format!("unexpected response body for Translate: {other:?}"),
            }),
        }
    }

    /// Submit answered SQL to a tenant's log.
    pub fn submit_sql(&self, tenant: &str, sql: &str) -> Result<(), ApiError> {
        match self.roundtrip(RequestBody::SubmitSql {
            tenant: tenant.to_string(),
            sql: sql.to_string(),
        })? {
            ResponseBody::SqlAccepted => Ok(()),
            other => Err(ApiError::MalformedEnvelope {
                detail: format!("unexpected response body for SubmitSql: {other:?}"),
            }),
        }
    }

    /// Report accepted SQL back to a tenant — the client's half of the
    /// learning loop.  The entry rides the same durable ingest path as
    /// [`RegistryClient::submit_sql`] and is counted under
    /// `feedback_accepted` in the tenant's metrics.
    pub fn feedback(&self, tenant: &str, sql: &str) -> Result<(), ApiError> {
        match self.roundtrip(RequestBody::Feedback {
            tenant: tenant.to_string(),
            sql: sql.to_string(),
        })? {
            ResponseBody::FeedbackAccepted => Ok(()),
            other => Err(ApiError::MalformedEnvelope {
                detail: format!("unexpected response body for Feedback: {other:?}"),
            }),
        }
    }

    /// Fetch a tenant's health report.  Health is exempt from admission
    /// control and never refused in degraded mode — it is the request an
    /// operator's probe sends to find out *why* writes are bouncing.
    pub fn health(&self, tenant: &str) -> Result<HealthReport, ApiError> {
        match self.roundtrip(RequestBody::Health {
            tenant: tenant.to_string(),
        })? {
            ResponseBody::Health(report) => Ok(report),
            other => Err(ApiError::MalformedEnvelope {
                detail: format!("unexpected response body for Health: {other:?}"),
            }),
        }
    }

    /// Fetch a tenant's serving metrics.
    pub fn metrics(&self, tenant: &str) -> Result<MetricsReport, ApiError> {
        match self.roundtrip(RequestBody::Metrics {
            tenant: tenant.to_string(),
        })? {
            ResponseBody::Metrics(report) => Ok(*report),
            other => Err(ApiError::MalformedEnvelope {
                detail: format!("unexpected response body for Metrics: {other:?}"),
            }),
        }
    }

    /// Fetch a tenant's captured slow queries, slowest first.
    pub fn slow_queries(&self, tenant: &str) -> Result<Vec<SlowQueryReport>, ApiError> {
        match self.roundtrip(RequestBody::SlowQueries {
            tenant: tenant.to_string(),
        })? {
            ResponseBody::SlowQueries(reports) => Ok(reports),
            other => Err(ApiError::MalformedEnvelope {
                detail: format!("unexpected response body for SlowQueries: {other:?}"),
            }),
        }
    }

    /// Fetch metrics in Prometheus text exposition format — one tenant, or
    /// every registered tenant when `tenant` is `None`.
    pub fn prometheus(&self, tenant: Option<&str>) -> Result<String, ApiError> {
        match self.roundtrip(RequestBody::Prometheus {
            tenant: tenant.map(str::to_string),
        })? {
            ResponseBody::Prometheus(text) => Ok(text),
            other => Err(ApiError::MalformedEnvelope {
                detail: format!("unexpected response body for Prometheus: {other:?}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A retryable error carries the attempt it came from, so a test can
    /// tell which error the loop returned.
    #[derive(Debug, PartialEq)]
    enum Refusal {
        Transient(u32),
        Fatal,
    }

    fn transient(error: &Refusal) -> bool {
        matches!(error, Refusal::Transient(_))
    }

    const FAST: Duration = Duration::from_micros(100);

    #[test]
    fn retry_with_deadline_stops_on_success_fatal_error_or_deadline() {
        let calls = Cell::new(0u32);
        let attempt = || {
            calls.set(calls.get() + 1);
            calls.get()
        };

        // Ok on the first call.
        let result = retry_with_deadline(Duration::from_secs(10), FAST, transient, || {
            attempt();
            Ok::<_, Refusal>("done")
        });
        assert_eq!((result, calls.get()), (Ok("done"), 1));

        // A non-retryable error returns after exactly one call.
        calls.set(0);
        let result = retry_with_deadline(Duration::from_secs(10), FAST, transient, || {
            attempt();
            Err::<(), _>(Refusal::Fatal)
        });
        assert_eq!((result, calls.get()), (Err(Refusal::Fatal), 1));

        // Success after k retryable errors takes k + 1 calls.
        calls.set(0);
        let k = 3;
        let result = retry_with_deadline(Duration::from_secs(10), FAST, transient, || {
            let n = attempt();
            if n <= k {
                Err(Refusal::Transient(n))
            } else {
                Ok(n)
            }
        });
        assert_eq!((result, calls.get()), (Ok(k + 1), k + 1));

        // A deadline expiry returns the last retryable error.  Only the
        // lower bound is asserted: a slow machine may overshoot it.
        calls.set(0);
        let deadline = Duration::from_millis(20);
        let started = Instant::now();
        let result = retry_with_deadline(deadline, Duration::from_millis(1), transient, || {
            Err::<(), _>(Refusal::Transient(attempt()))
        });
        assert!(started.elapsed() >= deadline);
        assert!(calls.get() >= 2, "the loop must retry before giving up");
        assert_eq!(result, Err(Refusal::Transient(calls.get())));
    }
}

//! The wire form of a tenant's service metrics.
//!
//! `templar-service` fills a [`MetricsReport`] straight from its live
//! counters and serves it unchanged: as the `Metrics` response on the wire
//! and, through [`MetricsReport::PROMETHEUS_FAMILIES`], as Prometheus text.
//! Each field is declared exactly once, in the `metrics_report!` list
//! below, together with its doc comment, its type and, for a field that is
//! exported on its own, its Prometheus family name, TYPE and HELP.  Adding a
//! metric is one entry there plus the code that fills it in.

use serde::{Deserialize, Serialize};
use templar_core::{RequestTrace, SearchStats};

/// One cumulative histogram bucket: how many observations were `≤ le_us`
/// microseconds.  `le_us == u64::MAX` is the `+Inf` bucket and always equals
/// the histogram's total count — the same cumulative-bucket contract as
/// Prometheus' `le` label, so expositions can be assembled from the wire
/// form without re-aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive upper bound of the bucket, in microseconds (`u64::MAX` for
    /// `+Inf`).
    pub le_us: u64,
    /// Observations at or below the bound (cumulative).
    pub count: u64,
}

/// One pipeline stage's accumulated latency distribution across every
/// translation the tenant served.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageLatencyReport {
    /// The stage's stable name (`templar_core::Stage::name`).
    pub stage: String,
    /// Timed calls recorded for the stage.
    pub count: u64,
    /// Approximate quantiles (power-of-two bucket upper bounds), µs.
    pub p50_us: u64,
    pub p99_us: u64,
    /// Exact mean and sum of the recorded durations, µs.
    pub mean_us: u64,
    pub sum_us: u64,
    /// Cumulative buckets (trailing-empty buckets trimmed; the final entry
    /// is always `+Inf`).
    pub buckets: Vec<HistogramBucket>,
}

/// One captured slow query: the full per-stage breakdown of one of the
/// slowest translations the tenant has served, kept in a bounded ring.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowQueryReport {
    /// Monotonic capture sequence number (later captures have larger
    /// values; survives evictions from the ring).
    pub seq: u64,
    /// The natural-language question as received.
    pub question: String,
    /// End-to-end latency, µs.
    pub total_us: u64,
    /// Whether the translation produced SQL.
    pub ok: bool,
    /// The per-stage breakdown recorded while serving the request.
    pub trace: RequestTrace,
    /// The configuration search's work counters for the request.
    pub search: SearchStats,
    /// True when the request was served from the translation cache; its
    /// breakdown then covers only the lookup, and `search` reports the
    /// original computation's counters.
    pub cache_hit: bool,
}

/// One tenant's write-availability state, answered by the `Health` request
/// — served even under admission overload (like the other observability
/// reads), so an operator can always ask "is this tenant taking writes?".
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HealthReport {
    /// `"healthy"` (full read/write) or `"degraded"` (read-only: the
    /// durable journal is failing and writes are refused).
    pub state: String,
    /// Gauge form of `state`: 0 = healthy, 1 = degraded.
    pub health_state: u64,
    /// Write entries refused while degraded, since start.
    pub degraded_entries_total: u64,
    /// In-line journal sync retries after a failure, since start.
    pub journal_retries_total: u64,
    /// Degraded episodes healed (staged tail replayed, writes restored).
    pub journal_heals_total: u64,
    /// Journal filesystem failures absorbed, since start.
    pub wal_io_errors: u64,
    /// First OS errno of the most recent journal failure episode, encoded
    /// as `errno + 1` (0 = none recorded).
    pub wal_last_errno: u64,
}

/// One numeric family of the Prometheus exposition, generated from the
/// [`MetricsReport`] field whose value it carries.
#[derive(Debug, Clone, Copy)]
pub struct MetricFamily {
    /// Family name: `templar_` prefixed; a counter's name ends in `_total`.
    pub name: &'static str,
    /// `# TYPE`: `"counter"` (accumulates since service start) or `"gauge"`
    /// (point-in-time).
    pub kind: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// Reads the family's sample from a report.
    pub value: fn(&MetricsReport) -> u64,
}

/// Declares [`MetricsReport`] and its Prometheus family table from one
/// list.  Each entry is a field with its doc comment and type; a field
/// exported as its own family continues with `=> counter|gauge "name"
/// "HELP text"`.  Fields without a family (the latency summaries and
/// histograms) reach the exposition through the hand-written histogram
/// families of `templar_service::prometheus_text`.
macro_rules! metrics_report {
    ($(
        $(#[$attr:meta])*
        $field:ident: $ty:ty $(=> $kind:ident $family:literal $help:literal)?
    ),* $(,)?) => {
        /// A point-in-time view of one tenant's serving health.
        #[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
        pub struct MetricsReport {
            $($(#[$attr])* pub $field: $ty,)*
        }

        impl MetricsReport {
            /// Every numeric family of the Prometheus exposition, in field
            /// order.
            pub const PROMETHEUS_FAMILIES: &'static [MetricFamily] = &[
                $($(MetricFamily {
                    name: $family,
                    kind: stringify!($kind),
                    help: $help,
                    value: |report| report.$field,
                },)?)*
            ];
        }
    };
}

metrics_report! {
    /// Translations served since start, and how many produced no SQL.
    translations_served: u64 => counter "templar_translations_total"
        "Translations served since start.",
    empty_translations: u64 => counter "templar_empty_translations_total"
        "Translations that produced no SQL candidate.",
    /// Best-first configuration-search counters, summed over every
    /// translation: configurations scored / provably pruned without
    /// scoring / prefix subtrees cut by the admissible bound, plus how
    /// many requests ran out of their search budget (best-effort rather
    /// than provably exact rankings).
    search_tuples_scored: u64 => counter "templar_search_tuples_scored_total"
        "Configurations fully scored by the best-first search.",
    search_tuples_pruned: u64 => counter "templar_search_tuples_pruned_total"
        "Configurations skipped by the admissible bound without scoring.",
    search_bound_cutoffs: u64 => counter "templar_search_bound_cutoffs_total"
        "Prefix subtrees cut by the admissible bound.",
    search_budget_exhausted: u64 => counter "templar_search_budget_exhausted_total"
        "Requests whose configuration search ran out of budget.",
    /// Approximate translation latency quantiles (power-of-two bucket upper
    /// bounds) and exact mean/sum, in microseconds.
    translate_p50_us: u64,
    translate_p99_us: u64,
    translate_mean_us: u64,
    translate_sum_us: u64,
    /// Cumulative end-to-end latency buckets (Prometheus `le` semantics;
    /// final entry is `+Inf`).
    translate_buckets: Vec<HistogramBucket>,
    /// Per-stage latency distributions, one entry per pipeline stage in
    /// execution order.
    stage_latencies: Vec<StageLatencyReport>,
    /// Ingestion counters: accepted into the queue / rejected at capacity /
    /// applied to the QFG / failed to parse on the live path.
    ingest_submitted: u64 => counter "templar_ingest_submitted_total"
        "SQL entries accepted into the ingestion queue.",
    ingest_rejected: u64 => counter "templar_ingest_rejected_total"
        "SQL entries rejected at queue capacity.",
    ingest_applied: u64 => counter "templar_ingest_applied_total"
        "SQL entries applied to the Query Fragment Graph.",
    ingest_parse_errors: u64 => counter "templar_ingest_parse_errors_total"
        "SQL entries that failed to parse on the live ingest path.",
    /// Statements skipped as unparsable while assembling the service's
    /// query log from raw SQL text.
    log_skipped_statements: u64 => counter "templar_log_skipped_statements_total"
        "Statements skipped as unparsable while assembling the bootstrap log.",
    /// Entries accepted but not yet applied.
    ingest_lag: u64 => gauge "templar_ingest_lag"
        "Entries accepted but not yet applied.",
    /// Log entries evicted under the retention bound.
    log_evictions: u64 => counter "templar_log_evictions_total"
        "Log entries evicted under the retention bound.",
    /// Snapshots published since start.
    snapshot_swaps: u64 => counter "templar_snapshot_swaps_total"
        "Snapshots published since start.",
    /// Accepted-SQL feedback entries received over the `Feedback` request
    /// (a subset of `ingest_submitted`).
    feedback_accepted: u64 => counter "templar_feedback_accepted_total"
        "Accepted-SQL feedback entries received.",
    /// Write-ahead journal counters (0 on a non-durable tenant): records
    /// appended / fsyncs issued / records replayed at recovery / segments
    /// garbage-collected / filesystem failures absorbed, plus the sequence
    /// number of the last journal record applied (the next checkpoint's
    /// watermark).
    wal_appended: u64 => counter "templar_wal_appended_total"
        "Write-ahead journal records appended.",
    wal_fsyncs: u64 => counter "templar_wal_fsyncs_total"
        "Write-ahead journal fsyncs issued.",
    wal_replayed: u64 => counter "templar_wal_replayed_total"
        "Journal records replayed at recovery.",
    wal_segments_gc: u64 => counter "templar_wal_segments_gc_total"
        "Journal segments garbage-collected.",
    wal_io_errors: u64 => counter "templar_wal_io_errors_total"
        "Journal filesystem failures absorbed.",
    /// First OS errno of the current (or most recent) journal failure
    /// episode, encoded as `errno + 1` (0 = none recorded) — tells
    /// operators `ENOSPC` (29) from `EIO` (6) straight from the report.
    wal_last_errno: u64 => gauge "templar_wal_last_errno"
        "First OS errno of the last journal failure episode, plus one (0 = none).",
    /// Write-availability state: 0 = healthy, 1 = degraded read-only
    /// (journal failing; `SubmitSql`/`Feedback` refused with `Degraded`).
    health_state: u64 => gauge "templar_health_state"
        "Write-availability state: 0 = healthy, 1 = degraded read-only.",
    /// Write entries refused while degraded.
    degraded_entries_total: u64 => counter "templar_degraded_entries_total"
        "Ingest/feedback entries refused while degraded.",
    /// In-line journal sync retries after a failure.
    journal_retries_total: u64 => counter "templar_journal_retries_total"
        "In-line journal sync retries after a failure.",
    /// Degraded episodes healed (staged tail replayed, writes restored).
    journal_heals_total: u64 => counter "templar_journal_heals_total"
        "Degraded episodes healed with the staged tail replayed.",
    /// Bytes cut off a torn journal tail at recovery (bounded data loss:
    /// acknowledged-but-unsynced entries that did not survive a crash).
    wal_truncated_bytes: u64 => counter "templar_wal_truncated_bytes_total"
        "Bytes cut off a torn journal tail at recovery.",
    /// Largest decoded WAL batch the last recovery materialized — the
    /// bounded-memory replay's high-water mark, at most
    /// `max(recovery_batch_bytes, largest single record)`.
    recovery_peak_batch_bytes: u64 => gauge "templar_recovery_peak_batch_bytes"
        "Largest decoded WAL batch the last recovery materialized.",
    /// On-disk size of the last snapshot written or recovered from, bytes.
    snapshot_body_bytes: u64 => gauge "templar_snapshot_body_bytes"
        "On-disk size of the last snapshot written or recovered from.",
    /// Admission-control sheds: requests rejected with `Backpressure`
    /// before any work was queued — at the tenant's own in-flight quota,
    /// and at the serving plane's global in-flight cap (attributed to the
    /// tenant whose request was turned away).
    admission_tenant_shed: u64 => counter "templar_admission_tenant_shed_total"
        "Requests shed at the tenant's in-flight quota.",
    admission_global_shed: u64 => counter "templar_admission_global_shed_total"
        "Requests shed at the serving plane's global in-flight cap.",
    wal_applied_seq: u64 => gauge "templar_wal_applied_seq"
        "Sequence number of the last journal record applied.",
    /// Join-cache statistics of the current snapshot.
    join_cache_hits: u64 => counter "templar_join_cache_hits_total"
        "Join-cache hits of the current snapshot.",
    join_cache_misses: u64 => counter "templar_join_cache_misses_total"
        "Join-cache misses of the current snapshot.",
    join_cache_evictions: u64 => counter "templar_join_cache_evictions_total"
        "Join-cache evictions of the current snapshot.",
    join_cache_entries: u64 => gauge "templar_join_cache_entries"
        "Resident join-cache entries.",
    /// Query Fragment Graph size (live fragments / edges / queries).
    qfg_fragments: u64 => gauge "templar_qfg_fragments"
        "Live query fragments in the current snapshot's QFG.",
    qfg_edges: u64 => gauge "templar_qfg_edges"
        "Co-occurrence edges in the current snapshot's QFG.",
    qfg_queries: u64 => gauge "templar_qfg_queries"
        "Log queries folded into the current snapshot's QFG.",
    /// Columnar data-plane gauges: interner table size, compacted CSR
    /// edges, pending delta pairs, compactions performed.
    qfg_interned_fragments: u64 => gauge "templar_qfg_interned_fragments"
        "Interner table size of the columnar data plane.",
    qfg_csr_edges: u64 => gauge "templar_qfg_csr_edges"
        "Edges resident in the compacted CSR.",
    qfg_pending_deltas: u64 => gauge "templar_qfg_pending_deltas"
        "Pending delta-log pairs awaiting compaction.",
    qfg_compactions: u64 => counter "templar_qfg_compactions_total"
        "Compactions the QFG lineage has undergone.",
    /// Tiered-compaction gauges of the ingest plane: sorted delta runs
    /// resident in the master graph and geometric run merges performed.
    qfg_delta_runs: u64 => gauge "templar_qfg_delta_runs"
        "Sorted delta runs resident in the master graph's tiered compactor.",
    qfg_run_merges: u64 => counter "templar_qfg_run_merges_total"
        "Geometric delta-run merges the QFG lineage has performed.",
    /// Epoch-keyed translation-cache counters: requests answered from the
    /// cache / requests that had to compute (and seeded it) / entries
    /// dropped at the capacity bound / wholesale invalidations on snapshot
    /// publish, plus the current entry gauge.  Bypassed requests touch
    /// neither hits nor misses.
    translation_cache_hits: u64 => counter "templar_translation_cache_hits_total"
        "Translations answered from the epoch-keyed translation cache.",
    translation_cache_misses: u64 => counter "templar_translation_cache_misses_total"
        "Translations computed because the cache had no entry.",
    translation_cache_evictions: u64 => counter "templar_translation_cache_evictions_total"
        "Translation-cache entries dropped at the capacity bound.",
    translation_cache_invalidations: u64 => counter "templar_translation_cache_invalidations_total"
        "Wholesale translation-cache invalidations on snapshot publish.",
    translation_cache_entries: u64 => gauge "templar_translation_cache_entries"
        "Resident translation-cache entries.",
    /// Similarity-model memo counters sampled from the current snapshot's
    /// `WordModel`: single-word and phrase vector cache hits/misses since
    /// the model instance was built.
    word_memo_hits: u64 => counter "templar_word_memo_hits_total"
        "Word-vector memo hits of the current snapshot's similarity model.",
    word_memo_misses: u64 => counter "templar_word_memo_misses_total"
        "Word-vector memo misses of the current snapshot's similarity model.",
    phrase_memo_hits: u64 => counter "templar_phrase_memo_hits_total"
        "Phrase-vector memo hits of the current snapshot's similarity model.",
    phrase_memo_misses: u64 => counter "templar_phrase_memo_misses_total"
        "Phrase-vector memo misses of the current snapshot's similarity model.",
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_reports_round_trip_through_serde() {
        let report = MetricsReport {
            translations_served: 7,
            search_tuples_scored: 19,
            search_tuples_pruned: 100,
            search_bound_cutoffs: 6,
            search_budget_exhausted: 1,
            qfg_interned_fragments: 42,
            qfg_csr_edges: 17,
            qfg_compactions: 3,
            log_skipped_statements: 2,
            feedback_accepted: 4,
            wal_appended: 9,
            wal_fsyncs: 2,
            wal_replayed: 5,
            wal_segments_gc: 1,
            wal_applied_seq: 9,
            translate_sum_us: 900,
            translate_buckets: vec![
                HistogramBucket { le_us: 0, count: 0 },
                HistogramBucket { le_us: 1, count: 2 },
                HistogramBucket {
                    le_us: u64::MAX,
                    count: 7,
                },
            ],
            stage_latencies: vec![StageLatencyReport {
                stage: "config_search".to_string(),
                count: 7,
                p50_us: 128,
                p99_us: 256,
                mean_us: 120,
                sum_us: 840,
                buckets: vec![HistogramBucket {
                    le_us: u64::MAX,
                    count: 7,
                }],
            }],
            ..MetricsReport::default()
        };
        let back: MetricsReport =
            serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
        assert_eq!(back, report);
    }
}

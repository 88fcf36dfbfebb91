//! The traced run's per-layer breakdown.  Each probe re-issues the run's
//! own generated inputs through one layer's public functions and times the
//! call from outside, or reads a counter the program already exports.

use crate::load::{Kind, Request};
use crate::plane::{self, Plane};
use crate::stats::{median, percentile};
use crate::wire::Client;
use crate::workloads::{Measured, Workload};
use crate::{Metric, Sizes};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use templar_api::binary;
use templar_api::{RequestBody, TranslateRequest};
use templar_core::{BagItem, Configuration, MappedElement, Templar, TemplarConfig};
use templar_service::wal::{self, WalWriter};
use templar_service::{read_snapshot_with_watermark, write_snapshot, ServiceConfig, WalConfig};

/// Largest residual the two breakdown sums are held to, as a share of the
/// end-to-end figure they explain.
pub const TRANSLATE_RESIDUAL_BOUND: f64 = 0.25;
pub const RECOVER_RESIDUAL_BOUND: f64 = 0.25;

/// How many top configurations the pipeline expands into SQL
/// (`nlidb::pipeline`'s `CONFIGS_PER_QUERY`).
const CONFIGS_PER_QUERY: usize = 6;

fn us(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e6
}

fn ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The bag `INFERJOINS` receives for a configuration (as the pipeline
/// builds it).
fn bag_of(configuration: &Configuration) -> Vec<BagItem> {
    configuration
        .mappings
        .iter()
        .map(|m| match &m.element {
            MappedElement::Relation(r) => BagItem::Relation(r.clone()),
            MappedElement::Attribute { attr, .. } | MappedElement::Predicate { attr, .. } => {
                BagItem::Attribute(attr.clone())
            }
        })
        .collect()
}

/// Run `f` while `extra` closed-loop clients replay the run's
/// translations over their own connections, as the window's other clients
/// did, so that `f`'s calls share the cores the way one client's requests
/// shared them in the window.
fn under_load<R>(
    plane: &Plane,
    catalog: &[Request],
    extra: usize,
    f: impl FnOnce() -> Result<R, String>,
) -> Result<R, String> {
    let stop = AtomicBool::new(false);
    let addr = plane.server.local_addr();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..extra)
            .map(|_| {
                scope.spawn(|| -> Result<(), String> {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    let translations = catalog.iter().filter(|r| r.kind == Kind::Translate);
                    for request in translations.cycle() {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        client
                            .roundtrip(&request.encoded)
                            .map_err(|e| e.to_string())?;
                    }
                    Ok(())
                })
            })
            .collect();
        let result = f();
        stop.store(true, Ordering::Relaxed);
        for client in clients {
            client.join().expect("load client panicked")?;
        }
        result
    })
}

/// The pipeline (`translate_with_config`) and its two TEMPLAR calls on one
/// request, µs: translate, map keywords, and the top configurations'
/// `infer_joins`.
fn pipeline(templar: &Templar, request: &TranslateRequest) -> [f64; 3] {
    let config = request.overrides.apply(templar.config());
    let started = Instant::now();
    black_box(nlidb::translate_with_config(templar, &request.keywords, &config).ok());
    let t_translate = us(started);
    let started = Instant::now();
    let (configurations, _) = templar.map_keywords_with_stats(&request.keywords, &config);
    let t_map = us(started);
    let mut t_joins = 0.0;
    for configuration in configurations.iter().take(CONFIGS_PER_QUERY) {
        let bag = bag_of(configuration);
        if !bag.is_empty() {
            let started = Instant::now();
            black_box(templar.infer_joins_with(&bag, &config).ok());
            t_joins += us(started);
        }
    }
    [t_translate, t_map, t_joins]
}

/// Check that a breakdown sum explains its end-to-end figure: the residual,
/// as a share of `total`, or an error when it exceeds `bound`.
fn check_sum(what: &str, total: f64, parts: f64, bound: f64) -> Result<f64, String> {
    let residual = (total - parts).abs() / total.max(f64::MIN_POSITIVE);
    let verdict = format!(
        "breakdown of {what}: {total:.1} vs layers {parts:.1}, residual {residual:.3} (bound {bound})"
    );
    if residual > bound {
        return Err(format!("{verdict} does not hold"));
    }
    println!("perfbench: {verdict} holds");
    Ok(residual)
}

/// Time every probe.  Each breakdown sum is checked on the workload its
/// end-to-end figure belongs to, and its residual reads 0 elsewhere:
/// - the translate sum on `cold_translate`, whose every request runs the
///   pipeline.  Its total is the socket p50 of the sampled requests, each
///   timed beside its layer calls while the window's other client keeps
///   loading the server, so both sides see the machine at the same speed;
/// - the restart sum on `durable_ingest`, whose restart replays a 100x log.
pub fn probe(
    plane: &Plane,
    measured: &Measured,
    sizes: &Sizes,
    work: &Path,
    workload: Workload,
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    // The restart breakdown below must see the directory `recover_s` was
    // measured on, before the ingest probes append to its journal.
    let copy = work.join("restart-probe");
    plane::copy_durable_dir(&plane.durable_dir, &copy)?;
    let requests: Vec<(&Request, &TranslateRequest)> = measured
        .translate_sample
        .iter()
        .filter_map(|&i| match &measured.catalog[i].body {
            RequestBody::Translate(translate) => Some((&measured.catalog[i], translate)),
            _ => None,
        })
        .collect();

    // server, service.registry, tracing overhead and the pipeline, in one
    // step per request: the same body over the socket, through
    // admit_and_dispatch and translate_request, and the pipeline's calls.
    let extra_clients = workload.clients() - 1;
    let paths = under_load(plane, &measured.catalog, extra_clients, || {
        let mut client = Client::connect(plane.server.local_addr()).map_err(|e| e.to_string())?;
        let mut timed = Vec::with_capacity(requests.len());
        for (n, &(Request { body, encoded, .. }, request)) in requests.iter().enumerate() {
            let service = &plane.tenant(&request.tenant).service;
            let traced_body =
                crate::wire::encode_body(&RequestBody::Translate(request.clone().with_trace()));
            if !request.bypass_cache {
                // Time the cached path the load saw, not a first miss.
                let _ = plane.registry.admit_and_dispatch(body);
            }
            let mut socket = |encoded: &[u8]| -> Result<f64, String> {
                let started = Instant::now();
                client.roundtrip(encoded).map_err(|e| e.to_string())?;
                Ok(us(started))
            };
            let registry = || {
                let started = Instant::now();
                black_box(plane.registry.admit_and_dispatch(body).ok());
                us(started)
            };
            let direct = || {
                let started = Instant::now();
                black_box(service.translate_request(request).ok());
                us(started)
            };
            let (t_socket, t_registry, t_direct) = if n % 2 == 0 {
                (socket(encoded)?, registry(), direct())
            } else {
                let d = direct();
                let r = registry();
                (socket(encoded)?, r, d)
            };
            let t_traced = socket(&traced_body)?;
            let [t_translate, t_map, t_joins] = pipeline(&service.snapshot(), request);
            timed.push([
                t_socket - t_registry,
                t_registry - t_direct,
                t_socket,
                t_traced,
                t_translate,
                t_map,
                t_joins,
                t_translate - t_map - t_joins,
            ]);
        }
        Ok(timed)
    })?;
    let column = |i: usize| -> Vec<f64> { paths.iter().map(|p| p[i]).collect() };
    let (server_self, registry_self) = (column(0), column(1));
    let (plain, traced) = (column(2), column(3));
    let (translate, map, joins, construct) = (column(4), column(5), column(6), column(7));
    let server_overhead = median(&server_self);
    let registry_dispatch = median(&registry_self);
    out.push(Metric::new("server.overhead_p50_us", server_overhead, "us"));
    let c = &measured.counters;
    let served = c.server_after.requests_served - c.server_before.requests_served;
    let wire = (c.server_after.bytes_read - c.server_before.bytes_read)
        + (c.server_after.bytes_written - c.server_before.bytes_written);
    out.push(Metric::new(
        "server.wire_bytes_per_request",
        ratio(wire, served),
        "bytes",
    ));
    out.push(Metric::new(
        "server.global_sheds",
        (c.server_after.global_sheds - c.server_before.global_sheds) as f64,
        "count",
    ));
    out.push(Metric::new(
        "registry.dispatch_p50_us",
        registry_dispatch,
        "us",
    ));
    let delta = |f: fn(&templar_service::MetricsSnapshot) -> u64| -> u64 {
        c.tenants.iter().map(|(b, a)| f(a) - f(b)).sum()
    };
    out.push(Metric::new(
        "registry.tenant_sheds",
        delta(|m| m.admission_tenant_shed) as f64,
        "count",
    ));
    out.push(Metric::new(
        "bench.tracing_overhead_us",
        median(&traced) - median(&plain),
        "us",
    ));

    // api: the codec on the run's real bodies and answers.
    let (mut enc_req, mut dec_req, mut enc_resp, mut dec_resp) = (vec![], vec![], vec![], vec![]);
    for (n, &(Request { body, .. }, _)) in requests.iter().enumerate() {
        let response = plane.registry.admit_and_dispatch(body);
        let id = n as u64 + 1;
        for _ in 0..5 {
            let started = Instant::now();
            let frame = black_box(binary::encode_request_frame(id, body));
            enc_req.push(us(started));
            let started = Instant::now();
            black_box(binary::decode_request_frame(&frame[4..]).ok());
            dec_req.push(us(started));
            let started = Instant::now();
            let frame = black_box(binary::encode_response_frame(id, &response));
            enc_resp.push(us(started));
            let started = Instant::now();
            black_box(binary::decode_response_frame(&frame[4..]).ok());
            dec_resp.push(us(started));
        }
    }
    out.push(Metric::new("api.encode_request_us", median(&enc_req), "us"));
    out.push(Metric::new("api.decode_request_us", median(&dec_req), "us"));
    out.push(Metric::new(
        "api.encode_response_us",
        median(&enc_resp),
        "us",
    ));
    out.push(Metric::new(
        "api.decode_response_us",
        median(&dec_resp),
        "us",
    ));

    // service.transcache: counters over the window, and a forced miss then
    // hit per sampled question (a top-k no other request uses makes a key
    // the cache cannot hold yet; top-k does not change the pipeline's work).
    let hits = delta(|m| m.translation_cache_hits);
    let misses = delta(|m| m.translation_cache_misses);
    out.push(Metric::new(
        "transcache.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    ));
    out.push(Metric::new(
        "transcache.evictions",
        delta(|m| m.translation_cache_evictions) as f64,
        "count",
    ));
    let (mut hit_us, mut miss_us) = (Vec::new(), Vec::new());
    for (n, &(_, request)) in requests.iter().enumerate() {
        let service = &plane.tenant(&request.tenant).service;
        let mut fresh = request.clone();
        fresh.bypass_cache = false;
        fresh.overrides.top_k = Some(1_000_000 + n);
        for sample in [&mut miss_us, &mut hit_us] {
            let started = Instant::now();
            black_box(service.translate_request(&fresh).ok());
            sample.push(us(started));
        }
    }
    out.push(Metric::new("transcache.hit_p50_us", median(&hit_us), "us"));
    out.push(Metric::new(
        "transcache.miss_p50_us",
        median(&miss_us),
        "us",
    ));

    // nlidb + core: the pipeline and its two TEMPLAR calls (timed in the
    // loop above, beside the same request's socket round trip).
    let nlidb_translate = median(&translate);
    out.push(Metric::new("nlidb.translate_p50_us", nlidb_translate, "us"));
    out.push(Metric::new("core.map_keywords_p50_us", median(&map), "us"));
    out.push(Metric::new("core.infer_joins_p50_us", median(&joins), "us"));
    out.push(Metric::new(
        "nlidb.construct_self_us",
        median(&construct),
        "us",
    ));
    let scored = delta(|m| m.search_tuples_scored);
    let pruned = delta(|m| m.search_tuples_pruned);
    out.push(Metric::new(
        "core.search_tuples_scored",
        scored as f64,
        "count",
    ));
    out.push(Metric::new(
        "core.search_pruned_ratio",
        ratio(pruned, scored + pruned),
        "ratio",
    ));
    let sum = |f: fn(&templar_service::MetricsSnapshot) -> u64| -> u64 {
        plane.tenants.iter().map(|t| f(&t.service.metrics())).sum()
    };
    let join_hits = sum(|m| m.join_cache_hits);
    let join_misses = sum(|m| m.join_cache_misses);
    out.push(Metric::new(
        "schemagraph.join_cache_hit_ratio",
        ratio(join_hits, join_hits + join_misses),
        "ratio",
    ));
    let word_hits = sum(|m| m.word_memo_hits);
    let word_misses = sum(|m| m.word_memo_misses);
    out.push(Metric::new(
        "nlp.word_memo_hit_ratio",
        ratio(word_hits, word_hits + word_misses),
        "ratio",
    ));
    let phrase_hits = sum(|m| m.phrase_memo_hits);
    let phrase_misses = sum(|m| m.phrase_memo_misses);
    out.push(Metric::new(
        "nlp.phrase_memo_hit_ratio",
        ratio(phrase_hits, phrase_hits + phrase_misses),
        "ratio",
    ));
    let residual = if workload == Workload::ColdTranslate {
        check_sum(
            "translate p50",
            median(&plain),
            server_overhead + registry_dispatch + nlidb_translate,
            TRANSLATE_RESIDUAL_BOUND,
        )?
    } else {
        0.0
    };
    out.push(Metric::new(
        "bench.breakdown_translate_residual",
        residual,
        "ratio",
    ));

    // service.ingest / sqlparse / core.qfg, on the SQL this run ingested.
    let durable = plane.durable();
    let counters = durable.metrics();
    out.push(Metric::new(
        "ingest.rejected",
        counters.ingest_rejected as f64,
        "count",
    ));
    out.push(Metric::new(
        "ingest.lag_max",
        measured.ingest_lag_max as f64,
        "count",
    ));
    out.push(Metric::new(
        "ingest.snapshot_swaps",
        counters.snapshot_swaps as f64,
        "count",
    ));
    out.push(Metric::new(
        "wal.fsyncs",
        counters.wal_fsyncs as f64,
        "count",
    ));
    let sql: Vec<&String> = measured.sql.iter().take(sizes.sql_probe).collect();
    let mut parse_us = Vec::new();
    let mut parsed = Vec::new();
    for text in &sql {
        let started = Instant::now();
        let query = sqlparse::parse_query(text);
        parse_us.push(us(started));
        parsed.extend(query.ok());
    }
    out.push(Metric::new(
        "sqlparse.parse_p50_us",
        median(&parse_us),
        "us",
    ));
    let snapshot = durable.snapshot();
    let mut qfg = snapshot.qfg().clone();
    let (mut ingest_us, mut compact_us) = (Vec::new(), Vec::new());
    for (n, query) in parsed.iter().enumerate() {
        let started = Instant::now();
        qfg.ingest(query);
        ingest_us.push(us(started));
        if n % 64 == 63 {
            let started = Instant::now();
            qfg.compact();
            compact_us.push(us(started));
        }
    }
    out.push(Metric::new("qfg.ingest_p50_us", median(&ingest_us), "us"));
    out.push(Metric::new("qfg.compact_p50_us", median(&compact_us), "us"));
    let mut submit_us = Vec::new();
    for text in &sql {
        let started = Instant::now();
        durable
            .submit_sql(text)
            .map_err(|e| format!("in-process submit failed: {e}"))?;
        submit_us.push(us(started));
    }
    durable.flush();
    out.push(Metric::new(
        "ingest.submit_p50_us",
        median(&submit_us),
        "us",
    ));
    // The socket acknowledgements the run itself measured.
    let acks = measured.submit_latency();
    let penalty_us = measured.load.elapsed_s * 1e6;
    out.push(Metric::new(
        "ingest.ack_p50_us",
        acks.percentile(0.5, penalty_us),
        "us",
    ));
    out.push(Metric::new(
        "ingest.ack_p90_us",
        acks.percentile(0.9, penalty_us),
        "us",
    ));

    // service.wal: a scratch journal fed the same SQL, under the default
    // group-commit policy.
    let wal_dir = work.join("wal-probe");
    let config = WalConfig::default();
    let every = config.fsync_every;
    let mut writer = WalWriter::create(&wal_dir, 1, config).map_err(|e| e.to_string())?;
    let (mut append_us, mut sync_ms) = (Vec::new(), Vec::new());
    for (n, text) in sql.iter().enumerate() {
        let started = Instant::now();
        writer.append(text);
        append_us.push(us(started));
        if n % every == every - 1 {
            let started = Instant::now();
            writer.sync().map_err(|e| e.to_string())?;
            sync_ms.push(ms(started));
        }
    }
    writer.sync().map_err(|e| e.to_string())?;
    drop(writer);
    let journal_bytes: u64 = std::fs::read_dir(&wal_dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    out.push(Metric::new("wal.append_us", median(&append_us), "us"));
    out.push(Metric::new("wal.sync_ms", median(&sync_ms), "ms"));
    out.push(Metric::new(
        "wal.bytes_per_entry",
        journal_bytes as f64 / sql.len().max(1) as f64,
        "bytes",
    ));
    let mut corpus = Vec::new();
    let log_text: Vec<String> = plane
        .mas_log
        .queries()
        .iter()
        .map(|q| q.to_string())
        .collect();
    while corpus.len() < 4 << 20 {
        for text in &log_text {
            corpus.extend_from_slice(text.as_bytes());
        }
    }
    let crc_rates: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            black_box(wal::crc32(black_box(&corpus)));
            corpus.len() as f64 / 1e6 / started.elapsed().as_secs_f64()
        })
        .collect();
    out.push(Metric::new("wal.crc_mb_per_s", median(&crc_rates), "MB/s"));

    // service.snapshot and the restart breakdown: the three phases of
    // `recover`, repeated on a copy of the live durable directory.
    let obscurity = TemplarConfig::paper_defaults().obscurity;
    let snapshot_path = copy.join(templar_service::SNAPSHOT_FILE);
    let (mut read_ms, mut replay_ms, mut build_ms, mut write_ms) = (vec![], vec![], vec![], vec![]);
    sizes.repeat(|rep| {
        let started = Instant::now();
        let (snap, watermark) =
            read_snapshot_with_watermark(&snapshot_path, obscurity).map_err(|e| e.to_string())?;
        read_ms.push(ms(started));
        let (mut log, mut qfg) = (snap.log.clone(), snap.qfg.clone());
        let started = Instant::now();
        wal::replay_batched(
            &copy.join(templar_service::WAL_DIR),
            watermark,
            ServiceConfig::default().recovery_batch_bytes,
            &mut |batch| {
                for (_, text) in batch {
                    if let Ok(query) = sqlparse::parse_query(text) {
                        qfg.ingest(&query);
                        log.push(query);
                    }
                }
            },
        )
        .map_err(|e| e.to_string())?;
        replay_ms.push(ms(started));
        let similarity = snapshot.similarity().clone();
        let started = Instant::now();
        black_box(
            Templar::from_parts(
                snapshot.database_handle(),
                qfg.clone(),
                similarity,
                TemplarConfig::paper_defaults(),
            )
            .map_err(|e| e.to_string())?,
        );
        build_ms.push(ms(started));
        let started = Instant::now();
        write_snapshot(
            &work.join(format!("probe-{rep}.templar")),
            &snap.log,
            &snap.qfg,
        )
        .map_err(|e| e.to_string())?;
        write_ms.push(ms(started));
        Ok((read_ms[rep] + replay_ms[rep] + build_ms[rep]) / 1e3)
    })?;
    let (read, replay, build) = (median(&read_ms), median(&replay_ms), median(&build_ms));
    out.push(Metric::new("wal.replay_ms", replay, "ms"));
    out.push(Metric::new("core.templar_build_ms", build, "ms"));
    out.push(Metric::new("snapshot.read_ms", read, "ms"));
    out.push(Metric::new("snapshot.write_ms", median(&write_ms), "ms"));
    let residual = if workload == Workload::DurableIngest {
        check_sum(
            "recover",
            median(&measured.recover_s) * 1e3,
            read + replay + build,
            RECOVER_RESIDUAL_BOUND,
        )?
    } else {
        0.0
    };
    out.push(Metric::new(
        "bench.breakdown_recover_residual",
        residual,
        "ratio",
    ));

    out.push(Metric::new(
        "service.checkpoint_stall_p99_us",
        measured.checkpoint_stall.percentile(0.99, f64::INFINITY),
        "us",
    ));
    let mut late = measured.load.late_us.clone();
    late.sort_by(f64::total_cmp);
    out.push(Metric::new(
        "bench.generator_late_p99_us",
        percentile(&late, 0.99),
        "us",
    ));
    Ok(out)
}

//! The two workloads: what each sends, how its answers are checked, and
//! what it measures around the load (set-up, accuracy, checkpoint and
//! restart).

use crate::load::{self, Check, Kind, Outcome, Request};
use crate::plane::{self, Plane, PlaneSpec, Tenant};
use crate::stats::{median, Latencies, Rng, Zipf};
use crate::Sizes;
use nlidb::translate_with_config;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use templar_api::{RequestBody, ResponseBody, TranslateRequest, TranslateResponse};
use templar_server::ServerStatsSnapshot;
use templar_service::{wal, MetricsSnapshot, TemplarService, SNAPSHOT_FILE, WAL_DIR};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdTranslate,
    DurableIngest,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold_translate" => Some(Workload::ColdTranslate),
            "durable_ingest" => Some(Workload::DurableIngest),
            _ => None,
        }
    }

    /// Client connections the window drives the server with.
    pub fn clients(self) -> usize {
        match self {
            Workload::ColdTranslate => 2,
            Workload::DurableIngest => 1,
        }
    }

    fn spec(self, sizes: &Sizes) -> PlaneSpec {
        match self {
            Workload::DurableIngest => PlaneSpec {
                all_datasets: false,
                mas_scale: sizes.durable_scale,
            },
            Workload::ColdTranslate => PlaneSpec {
                all_datasets: true,
                mas_scale: 1,
            },
        }
    }
}

const RANK_ORDER_SEED: u64 = 0x5EED_2A4C;

/// Everything one run measured, for the end-to-end report and the traced
/// per-layer probes.
pub struct Measured {
    pub setup_s: f64,
    /// The timed window.
    pub load: Outcome,
    pub top1_accuracy: f64,
    pub checkpoint_s: Vec<f64>,
    pub checkpoint_stall: Latencies,
    pub snapshot_bytes: f64,
    pub recover_s: Vec<f64>,
    pub ingest_lag_max: u64,
    /// Every request the run sent, and a sample of its translations for the
    /// per-layer probes (indices into `catalog`).
    pub catalog: Vec<Request>,
    pub translate_sample: Vec<usize>,
    /// The SQL the run ingested (none on the read-only workloads).
    pub sql: Vec<String>,
    pub counters: Counters,
}

/// The program's own counters on both sides of the timed window.
pub struct Counters {
    pub server_before: ServerStatsSnapshot,
    pub server_after: ServerStatsSnapshot,
    /// Per tenant: (before, after).
    pub tenants: Vec<(MetricsSnapshot, MetricsSnapshot)>,
}

/// Run the timed window `f`, reading the counters around it.
fn counted<T>(
    plane: &Plane,
    f: impl FnOnce() -> Result<T, String>,
) -> Result<(T, Counters), String> {
    let metrics_before: Vec<_> = plane.tenants.iter().map(|t| t.service.metrics()).collect();
    let server_before = plane.server.stats();
    let result = f()?;
    let server_after = plane.server.stats();
    let tenants = metrics_before
        .into_iter()
        .zip(&plane.tenants)
        .map(|(before, t)| (before, t.service.metrics()))
        .collect();
    Ok((
        result,
        Counters {
            server_before,
            server_after,
            tenants,
        },
    ))
}

/// Set the plane up several times from nothing (see `Sizes::repeat`) and
/// keep the last; the median set-up time is the `setup_s` metric.
pub fn set_up(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    work: &Path,
    process_start: Instant,
) -> Result<(Plane, f64), String> {
    let mut plane: Option<Plane> = None;
    let times = sizes.repeat(|rep| {
        // Tear the previous plane down before timing the next.
        if let Some(old) = plane.take() {
            let dir = old.durable_dir.clone();
            drop(old);
            let _ = std::fs::remove_dir_all(dir);
        }
        let started = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let built = Plane::start(
            workload.spec(sizes),
            seed,
            &work.join(format!("durable-{rep}")),
        )?;
        let secs = started.elapsed().as_secs_f64();
        plane = Some(built);
        Ok(secs)
    })?;
    Ok((plane.expect("at least one set-up"), median(&times)))
}

pub fn run(
    workload: Workload,
    plane: &Plane,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    work: &Path,
) -> Result<Measured, String> {
    match workload {
        Workload::ColdTranslate => cold_translate(plane, sizes, seed, seconds, work),
        Workload::DurableIngest => durable_ingest(plane, sizes, seed, seconds, work),
    }
}

/// Every benchmark question of every tenant, as (tenant, case index).
fn questions(plane: &Plane) -> Vec<(&Tenant, usize)> {
    plane
        .tenants
        .iter()
        .flat_map(|t| (0..t.dataset.cases.len()).map(move |i| (t, i)))
        .collect()
}

fn translate_request(tenant: &Tenant, case: usize) -> TranslateRequest {
    let nlq = &tenant.dataset.cases[case].nlq;
    TranslateRequest::new(tenant.name, nlq.text.clone(), nlq.keywords.clone())
}

/// The in-process answer to `request`, computed with the translation cache
/// bypassed — the reference every socket response is compared with.
fn reference(service: &TemplarService, request: &TranslateRequest) -> Result<ResponseBody, String> {
    let mut request = request.clone();
    request.bypass_cache = true;
    service
        .translate_request(&request)
        .map(ResponseBody::Translated)
        .map_err(|e| format!("reference translation of {:?} failed: {e}", request.nlq))
}

/// References for many requests on two threads (the machine has two
/// cores): `(service, request)` pairs in, response bodies out, in order.
fn references(jobs: &[(&TemplarService, TranslateRequest)]) -> Result<Vec<ResponseBody>, String> {
    let half = jobs.len().div_ceil(2);
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(half.max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|(service, request)| reference(service, request))
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        let mut all = Vec::with_capacity(jobs.len());
        for handle in handles {
            all.extend(handle.join().expect("reference thread panicked")?);
        }
        Ok(all)
    })
}

/// Share of `tenants`' questions whose top-1 SQL is correct
/// (`eval::fq_correct` against gold), translated in-process against each
/// tenant's current snapshot.
fn top1_accuracy(tenants: &[&Tenant]) -> f64 {
    let (mut correct, mut total) = (0usize, 0usize);
    for tenant in tenants {
        let snapshot = tenant.service.snapshot();
        for case in &tenant.dataset.cases {
            total += 1;
            if let Ok(ranked) =
                translate_with_config(&snapshot, &case.nlq.keywords, snapshot.config())
            {
                correct += eval::fq_correct(&ranked, &case.gold_sql) as usize;
            }
        }
    }
    correct as f64 / total.max(1) as f64
}

fn no_check(_: &ResponseBody) -> bool {
    false
}

/// `cold_translate`: two closed-loop clients cycling over all 449
/// questions of the three tenants, every request bypassing the cache.
fn cold_translate(
    plane: &Plane,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    work: &Path,
) -> Result<Measured, String> {
    let questions = questions(plane);
    let jobs: Vec<_> = questions
        .iter()
        .map(|&(t, i)| (&*t.service, translate_request(t, i).with_bypass_cache()))
        .collect();
    let refs = references(&jobs)?;
    let catalog: Vec<Request> = jobs
        .into_iter()
        .zip(&refs)
        .map(|((_, request), expected)| {
            Request::new(
                Kind::Translate,
                RequestBody::Translate(request),
                Some(expected),
            )
        })
        .collect();
    let tenants: Vec<&Tenant> = plane.tenants.iter().collect();
    let top1 = top1_accuracy(&tenants);

    let mut order: Vec<usize> = (0..catalog.len()).collect();
    Rng::derive(seed, 1).shuffle(&mut order);
    let mut shifted = order.clone();
    shifted.rotate_left(order.len() / 2);
    let translate_sample = order.iter().copied().take(sizes.layer_sample).collect();

    let (load, counters) = counted(plane, || {
        load::closed_loop(
            plane.server.local_addr(),
            &catalog,
            &[order, shifted],
            Some(seconds),
            &no_check,
        )
    })?;
    let mut measured = Measured::new(load, catalog, translate_sample, top1, counters);
    durability_epilogue(plane, sizes, work, &mut measured)?;
    Ok(measured)
}

/// Which question holds which Zipf rank.  Fixed, not drawn from the run's
/// seed: the seed varies the draws, while every run keeps the same hot set.
fn rank_order(keys: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys).collect();
    Rng::new(RANK_ORDER_SEED).shuffle(&mut order);
    order
}

/// `durable_ingest`: open loop at `sizes.durable_rate` against the durable
/// MAS tenant bootstrapped from a `scale_log` journal — 70% translate
/// (Zipf over the MAS questions, cache on), 20% SubmitSql, 10% Feedback —
/// with checkpoints on a fixed schedule, then a timed restart.
fn durable_ingest(
    plane: &Plane,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    work: &Path,
) -> Result<Measured, String> {
    let tenant = plane.tenant(plane::DURABLE_TENANT);
    let cases = tenant.dataset.cases.len();
    // Gate: before the log moves, every socket answer equals its reference.
    let gate_jobs: Vec<_> = (0..cases)
        .map(|i| {
            (
                &*tenant.service,
                translate_request(tenant, i).with_bypass_cache(),
            )
        })
        .collect();
    let gate_refs = references(&gate_jobs)?;
    let gate: Vec<Request> = gate_jobs
        .into_iter()
        .zip(&gate_refs)
        .map(|((_, r), expected)| {
            Request::new(Kind::Translate, RequestBody::Translate(r), Some(expected))
        })
        .collect();
    let gated = load::closed_loop(
        plane.server.local_addr(),
        &gate,
        &[(0..gate.len()).collect()],
        None,
        &no_check,
    )?;
    if gated.mismatched() + gated.failed() > 0 {
        return Err(format!("pre-traffic answers differ: {:?}", gated.errors));
    }

    // The catalog: the MAS questions, then SubmitSql and Feedback bodies
    // over SQL drawn from the scaled log's synthetic tail.
    let mut catalog: Vec<Request> = (0..cases)
        .map(|i| {
            Request::new(
                Kind::Translate,
                RequestBody::Translate(translate_request(tenant, i)),
                None,
            )
        })
        .collect();
    let tail: Vec<String> = plane
        .mas_log
        .queries()
        .iter()
        .skip(cases)
        .map(|q| q.to_string())
        .collect();
    let mut rng = Rng::derive(seed, 5);
    let sql: Vec<String> = (0..sizes.sql_pool)
        .map(|_| tail[rng.below(tail.len())].clone())
        .collect();
    let submit_base = catalog.len();
    for text in &sql {
        let body = RequestBody::SubmitSql {
            tenant: tenant.name.to_string(),
            sql: text.clone(),
        };
        catalog.push(Request::new(
            Kind::Submit,
            body,
            Some(&ResponseBody::SqlAccepted),
        ));
    }
    let feedback_base = catalog.len();
    for text in &sql {
        let body = RequestBody::Feedback {
            tenant: tenant.name.to_string(),
            sql: text.clone(),
        };
        catalog.push(Request::new(
            Kind::Feedback,
            body,
            Some(&ResponseBody::FeedbackAccepted),
        ));
    }
    let by_rank = rank_order(cases);
    let zipf = Zipf::new(cases);
    let count = (sizes.durable_rate * seconds).ceil() as usize;
    let schedule = load::poisson_schedule(
        &mut Rng::derive(seed, 7),
        sizes.durable_rate,
        count,
        |rng| match rng.below(10) {
            0..=6 => by_rank[zipf.sample(rng)],
            7 | 8 => submit_base + rng.below(sql.len()),
            _ => feedback_base + rng.below(sql.len()),
        },
    );
    let checkpoint_count = ((seconds / sizes.checkpoint_every_s) as usize).max(1);
    let checkpoints: Vec<f64> = (0..checkpoint_count)
        .map(|k| (k as f64 + 0.5) * seconds / checkpoint_count as f64)
        .collect();
    let translate_sample = schedule
        .iter()
        .map(|&(_, i)| i)
        .filter(|&i| i < cases)
        .take(sizes.layer_sample)
        .collect();

    let consistent = |body: &ResponseBody| match body {
        ResponseBody::Translated(r) => well_formed(r, tenant.name),
        _ => false,
    };
    let ((load, lag, windows), counters) = counted(plane, || {
        open_loop_with_monitor(plane, &catalog, &schedule, &checkpoints, &consistent)
    })?;

    tenant.service.flush();
    let top1 = top1_accuracy(&[tenant]);
    let mut stall = Latencies::default();
    for done in &load.translations {
        if windows
            .iter()
            .any(|&(s, e)| done.due_ns < e && done.done_ns > s)
        {
            stall.push(
                done.due_ns as f64 / 1e9,
                (done.done_ns - done.due_ns) as f64 / 1e3,
            );
        }
    }
    let mut measured = Measured::new(load, catalog, translate_sample, top1, counters);
    measured.sql = sql;
    measured.ingest_lag_max = lag;
    measured.checkpoint_s = windows.iter().map(|&(s, e)| (e - s) as f64 / 1e9).collect();
    measured.checkpoint_stall = stall;
    durability_epilogue(plane, sizes, work, &mut measured)?;
    Ok(measured)
}

/// A translation answer that is plausible without a fixed reference: this
/// tenant's, non-empty, every score reproducible from its explanation.
fn well_formed(response: &TranslateResponse, tenant: &str) -> bool {
    response.tenant == tenant
        && !response.candidates.is_empty()
        && response
            .candidates
            .iter()
            .all(|c| c.explanation.is_consistent(1e-9))
}

/// An open-loop outcome, the largest ingest lag seen, and each
/// checkpoint's (start, end) in ns from the window start.
type Monitored = (Outcome, u64, Vec<(u64, u64)>);

/// Run the open loop while a monitor thread samples the durable tenant's
/// ingest lag and runs its checkpoints at `checkpoints_at` seconds into the
/// window.
fn open_loop_with_monitor(
    plane: &Plane,
    catalog: &[Request],
    schedule: &[(u64, usize)],
    checkpoints_at: &[f64],
    check: &Check,
) -> Result<Monitored, String> {
    let service = plane.durable();
    // Leave the connect and thread start-up outside the window.
    let start = Instant::now() + Duration::from_millis(20);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let monitor = scope.spawn(|| -> Result<(u64, Vec<(u64, u64)>), String> {
            let mut lag = 0u64;
            let mut windows = Vec::new();
            let mut next = checkpoints_at.iter().peekable();
            while !stop.load(Ordering::Relaxed) {
                lag = lag.max(service.metrics().ingest_lag);
                if next
                    .peek()
                    .is_some_and(|&&at| start.elapsed().as_secs_f64() >= at)
                {
                    next.next();
                    let begun = start.elapsed().as_nanos() as u64;
                    service
                        .checkpoint()
                        .map_err(|e| format!("checkpoint failed: {e}"))?;
                    windows.push((begun, start.elapsed().as_nanos() as u64));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            Ok((lag, windows))
        });
        let outcome = load::open_loop(plane.server.local_addr(), catalog, schedule, start, check);
        stop.store(true, Ordering::Relaxed);
        let (lag, windows) = monitor.join().expect("monitor panicked")?;
        Ok((outcome?, lag, windows))
    })
}

/// After the timed window: the durable tenant's checkpoint and restart
/// path.  Where no checkpoint ran inside the window (`cold_translate`), the
/// tenant as bootstrapped is checkpointed back to back instead.  The restart must answer the MAS questions exactly as the live
/// service does at its final epoch, or the run fails.
fn durability_epilogue(
    plane: &Plane,
    sizes: &Sizes,
    work: &Path,
    measured: &mut Measured,
) -> Result<(), String> {
    let tenant = plane.tenant(plane::DURABLE_TENANT);
    let service = &tenant.service;
    if measured.checkpoint_s.is_empty() {
        measured.checkpoint_s = sizes.repeat(|_| {
            let started = Instant::now();
            service
                .checkpoint()
                .map_err(|e| format!("checkpoint failed: {e}"))?;
            Ok(started.elapsed().as_secs_f64())
        })?;
    }
    service.flush();
    settle_journal(service, &plane.durable_dir, work)?;
    measured.snapshot_bytes = std::fs::metadata(plane.durable_dir.join(SNAPSHOT_FILE))
        .map_err(|e| format!("stat the snapshot: {e}"))?
        .len() as f64;

    let final_answers = answers(service, tenant)?;
    measured.recover_s = sizes.repeat(|rep| {
        let copy = work.join(format!("restart-{rep}"));
        let (recovered, secs) = plane::recover_copy(&tenant.dataset, &plane.durable_dir, &copy)?;
        if rep == 0 && answers(&recovered, tenant)? != final_answers {
            return Err("the restarted service answers differently from the live one".to_string());
        }
        drop(recovered);
        let _ = std::fs::remove_dir_all(&copy);
        Ok(secs)
    })?;
    Ok(())
}

/// Wait until the durable directory holds every applied entry.  The ingest
/// worker's group commit writes a dirty tail within its fsync interval, but
/// a stalled machine can stretch that, and a copy taken early would restart
/// to an older state than the live service's.
fn settle_journal(service: &TemplarService, dir: &Path, work: &Path) -> Result<(), String> {
    let applied = service.metrics().wal_applied_seq;
    let probe = work.join("settle");
    for _ in 0..500 {
        let _ = std::fs::remove_dir_all(&probe);
        plane::copy_durable_dir(dir, &probe)?;
        let on_disk = wal::replay(&probe.join(WAL_DIR), applied)
            .map_err(|e| format!("read the journal: {e}"))?
            .next_seq
            - 1;
        if on_disk >= applied {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    Err(format!("the journal never reached entry {applied} on disk"))
}

/// The service's bypass-cache answers to every question of `tenant`.
fn answers(service: &TemplarService, tenant: &Tenant) -> Result<Vec<ResponseBody>, String> {
    (0..tenant.dataset.cases.len())
        .map(|i| reference(service, &translate_request(tenant, i)))
        .collect()
}

impl Measured {
    fn new(
        load: Outcome,
        catalog: Vec<Request>,
        translate_sample: Vec<usize>,
        top1: f64,
        counters: Counters,
    ) -> Measured {
        Measured {
            setup_s: 0.0,
            load,
            top1_accuracy: top1,
            checkpoint_s: Vec::new(),
            checkpoint_stall: Latencies::default(),
            snapshot_bytes: 0.0,
            recover_s: Vec::new(),
            ingest_lag_max: 0,
            catalog,
            translate_sample,
            sql: Vec::new(),
            counters,
        }
    }

    /// Attempted/ok/shed/failed per operation type, for the log line.
    pub fn accounting(&self) -> String {
        Kind::ALL
            .iter()
            .map(|&kind| {
                let tally = self.load.tally(kind);
                format!(
                    "{kind:?}={}/{}/{}/{}",
                    tally.attempted, tally.ok, tally.shed, tally.failed
                )
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// SubmitSql and Feedback acknowledgement latencies together.
    pub fn submit_latency(&self) -> Latencies {
        let mut latency = self.load.tally(Kind::Submit).latency.clone();
        latency.merge(&self.load.tally(Kind::Feedback).latency);
        latency
    }
}

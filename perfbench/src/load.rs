//! Load generators over real sockets: a closed loop (each client waits for
//! its reply before sending again) and an open loop (requests sent on a
//! seeded schedule whether or not earlier ones have returned, each timed
//! from when it was due).

use crate::stats::Latencies;
use crate::wire::{self, Client, FrameReader, Verdict};
use std::io::Write;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use templar_api::{RequestBody, ResponseBody};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Translate,
    Submit,
    Feedback,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Translate, Kind::Submit, Kind::Feedback];

    fn index(self) -> usize {
        self as usize
    }
}

/// One distinct request a workload sends, encoded once.
pub struct Request {
    pub kind: Kind,
    pub body: RequestBody,
    pub encoded: Vec<u8>,
    /// The response body the server must send back, byte for byte; `None`
    /// where the answer legitimately changes during the run (translations
    /// while the log grows), which the workload's check then judges.
    pub expected: Option<Vec<u8>>,
}

impl Request {
    pub fn new(kind: Kind, body: RequestBody, expected: Option<&ResponseBody>) -> Request {
        Request {
            kind,
            encoded: wire::encode_body(&body),
            body,
            expected: expected.map(wire::expected_ok),
        }
    }
}

/// A check for responses that have no fixed expected bytes.
pub type Check = dyn Fn(&ResponseBody) -> bool + Sync;

/// Per-operation-type accounting.
#[derive(Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub shed: u64,
    pub failed: u64,
    pub mismatched: u64,
    pub latency: Latencies,
}

/// One completed translation, for attributing latency to what overlapped it.
#[derive(Clone, Copy)]
pub struct Completed {
    pub due_ns: u64,
    pub done_ns: u64,
}

#[derive(Default)]
pub struct Outcome {
    pub tallies: [Tally; 3],
    /// Wall time of the measured window.
    pub elapsed_s: f64,
    /// How late the open-loop generator sent each request, µs.
    pub late_us: Vec<f64>,
    pub translations: Vec<Completed>,
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn tally(&self, kind: Kind) -> &Tally {
        &self.tallies[kind.index()]
    }

    pub fn attempted(&self) -> u64 {
        self.tallies.iter().map(|t| t.attempted).sum()
    }

    /// Failed plus shed, over every operation type.
    pub fn failed(&self) -> u64 {
        self.tallies.iter().map(|t| t.failed + t.shed).sum()
    }

    pub fn mismatched(&self) -> u64 {
        self.tallies.iter().map(|t| t.mismatched).sum()
    }

    pub fn absorb(&mut self, other: Outcome) {
        for (mine, theirs) in self.tallies.iter_mut().zip(other.tallies) {
            mine.attempted += theirs.attempted;
            mine.ok += theirs.ok;
            mine.shed += theirs.shed;
            mine.failed += theirs.failed;
            mine.mismatched += theirs.mismatched;
            mine.latency.merge(&theirs.latency);
        }
        self.late_us.extend(other.late_us);
        self.translations.extend(other.translations);
        self.errors.extend(other.errors);
    }

    /// Account one request, sent (or due) `at_s` seconds into the window.
    fn record(
        &mut self,
        request: &Request,
        payload: Option<&[u8]>,
        at_s: f64,
        latency_us: f64,
        check: &Check,
    ) {
        let tally = &mut self.tallies[request.kind.index()];
        tally.attempted += 1;
        let verdict = match payload {
            Some(payload) => wire::judge(payload, request.expected.as_deref(), check),
            None => Verdict::Failed("connection lost".to_string()),
        };
        match verdict {
            Verdict::Ok => {
                tally.ok += 1;
                tally.latency.push(at_s, latency_us);
                return;
            }
            Verdict::Shed => tally.shed += 1,
            Verdict::Mismatch => {
                tally.mismatched += 1;
                if self.errors.len() < 8 {
                    self.errors.push(format!(
                        "{:?} response differs from the reference",
                        request.kind
                    ));
                }
            }
            Verdict::Failed(error) => {
                tally.failed += 1;
                if self.errors.len() < 8 {
                    self.errors
                        .push(format!("{:?} failed: {error}", request.kind));
                }
            }
        }
        tally.latency.push_failure(at_s);
    }
}

/// One closed-loop connection per entry of `sequences`, client `c` sending
/// `sequences[c]` (indices into `catalog`): cycling until `seconds` have
/// passed, or once through when `seconds` is `None`.
pub fn closed_loop(
    addr: SocketAddr,
    catalog: &[Request],
    sequences: &[Vec<usize>],
    seconds: Option<f64>,
    check: &Check,
) -> Result<Outcome, String> {
    let window = seconds.map(Duration::from_secs_f64);
    let started = Instant::now();
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = sequences
            .iter()
            .map(|sequence| {
                scope.spawn(move || -> Result<Outcome, String> {
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut outcome = Outcome::default();
                    let rounds = if window.is_some() { usize::MAX } else { 1 };
                    let sends = sequence
                        .iter()
                        .cycle()
                        .take(sequence.len().saturating_mul(rounds));
                    for &index in sends {
                        if window.is_some_and(|w| started.elapsed() >= w) {
                            break;
                        }
                        let request = &catalog[index];
                        let sent = Instant::now();
                        let payload = client.roundtrip(&request.encoded).ok();
                        let latency_us = sent.elapsed().as_secs_f64() * 1e6;
                        let at_s = (sent - started).as_secs_f64();
                        outcome.record(request, payload.as_deref(), at_s, latency_us, check);
                        if payload.is_none() {
                            break;
                        }
                    }
                    Ok(outcome)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut total = Outcome::default();
    for outcome in outcomes {
        total.absorb(outcome);
    }
    total.elapsed_s = started.elapsed().as_secs_f64();
    Ok(total)
}

/// How long before a due time the sender stops sleeping and spins, so
/// timer slack does not make every request late.
const SPIN_NS: u64 = 100_000;

/// Send `schedule` (due offset from `start` in ns, catalog index) over one
/// pipelined connection: one thread sends on time, the other reads
/// responses as they complete, in whatever order the server's workers
/// finish them.
pub fn open_loop(
    addr: SocketAddr,
    catalog: &[Request],
    schedule: &[(u64, usize)],
    start: Instant,
    check: &Check,
) -> Result<Outcome, String> {
    let writer = wire::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let reader_stream = writer
        .try_clone()
        .map_err(|e| format!("clone socket: {e}"))?;
    reader_stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("set read timeout: {e}"))?;
    let (late_us, mut outcome) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut writer = writer;
            let mut late_us = Vec::with_capacity(schedule.len());
            for (i, &(due_ns, index)) in schedule.iter().enumerate() {
                let due = start + Duration::from_nanos(due_ns);
                let now = Instant::now();
                if due > now {
                    let wait = due - now;
                    if wait > Duration::from_nanos(SPIN_NS) {
                        std::thread::sleep(wait - Duration::from_nanos(SPIN_NS));
                    }
                    while Instant::now() < due {
                        std::hint::spin_loop();
                    }
                }
                late_us.push(due.elapsed().as_secs_f64() * 1e6);
                if writer
                    .write_all(&wire::frame(i as u64 + 1, &catalog[index].encoded))
                    .is_err()
                {
                    break;
                }
            }
            late_us
        });
        let receiver = scope.spawn(move || {
            let mut reader = FrameReader::new(reader_stream);
            let mut outcome = Outcome::default();
            let mut answered = vec![false; schedule.len()];
            for _ in 0..schedule.len() {
                let Ok(payload) = reader.read() else { break };
                let done_ns = start.elapsed().as_nanos() as u64;
                let id = wire::payload_id(&payload) as usize;
                let Some(&(due_ns, index)) = id.checked_sub(1).and_then(|i| schedule.get(i)) else {
                    outcome
                        .errors
                        .push(format!("response with unknown id {id}"));
                    break;
                };
                answered[id - 1] = true;
                let request = &catalog[index];
                let latency_us = done_ns.saturating_sub(due_ns) as f64 / 1e3;
                let at_s = due_ns as f64 / 1e9;
                outcome.record(request, Some(&payload), at_s, latency_us, check);
                if request.kind == Kind::Translate {
                    outcome.translations.push(Completed { due_ns, done_ns });
                }
            }
            // Whatever never came back counts as failed.
            for (&(due_ns, index), _) in schedule.iter().zip(&answered).filter(|(_, &a)| !a) {
                outcome.record(&catalog[index], None, due_ns as f64 / 1e9, 0.0, check);
            }
            outcome
        });
        let late_us = sender.join().expect("open-loop sender panicked");
        let outcome = receiver.join().expect("open-loop receiver panicked");
        (late_us, outcome)
    });
    outcome.late_us = late_us;
    outcome.elapsed_s = start.elapsed().as_secs_f64();
    Ok(outcome)
}

/// A Poisson arrival schedule of `count` requests at `rate` per second,
/// each request's catalog index drawn by `pick`.
pub fn poisson_schedule(
    rng: &mut crate::stats::Rng,
    rate: f64,
    count: usize,
    mut pick: impl FnMut(&mut crate::stats::Rng) -> usize,
) -> Vec<(u64, usize)> {
    let mut due_ns = 0u64;
    (0..count)
        .map(|_| {
            due_ns += rng.exp_gap_ns(rate);
            (due_ns, pick(rng))
        })
        .collect()
}

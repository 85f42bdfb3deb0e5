//! Load generation: the open-loop phase that yields latency, the
//! closed-loop phase that yields peak throughput, and the per-op-type
//! ledger of attempts, failures, wrong answers and latencies.
//!
//! One generator thread, one `RouterClient` (one connection per shard).
//! Open-loop requests are due on a fixed schedule; each is timed from its
//! due time when the generator was still busy with an earlier response
//! (the wait a slow answer imposes on later ones counts), and from the
//! actual send when the generator was idle (its own oversleep does not
//! count, and is reported separately as lateness).
//!
//! Both phases are cut into fixed windows, and a run's wall-clock figure
//! is the median over its windows of each window's quantile or rate: a
//! host stall shorter than half the phase moves a few windows, not the
//! figure.

use crate::host::Probe;
use crate::trace::Tracer;
use crate::{int, obj, opt};
use fstore_common::stats::exact_quantile;
use fstore_serve::{ClientError, Request, Response, StoreApi, Transport};
use fstore_shard::RouterClient;
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The request types the workloads issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Op {
    Get,
    MGet,
    Search,
    Embed,
    Put,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Get => "get",
            Op::MGet => "mget",
            Op::Search => "search",
            Op::Embed => "embed",
            Op::Put => "put",
        }
    }
}

/// One generated request; `tag` is the workload's own handle for its
/// oracle (entity, query or version index).
#[derive(Clone, Debug)]
pub struct Job {
    pub op: Op,
    pub request: Request,
    pub tag: u64,
}

/// A traffic mix plus the oracle its answers are checked against.
pub trait Workload {
    /// The next request of the mix (deterministic for a given seed).
    fn next_job(&mut self) -> Job;

    /// Check the answers to a burst of jobs that were in flight together
    /// (a single job in the open loop). Returns one verdict per job:
    /// `Ok(())`, or the reason the answer is wrong. Writes acknowledged in
    /// the burst are folded into the oracle here.
    fn check(
        &mut self,
        jobs: &[Job],
        responses: &[Response],
        acked_at: Instant,
    ) -> Vec<Result<(), String>>;
}

/// Attempts and outcomes of one op type over a run.
#[derive(Default)]
pub struct OpLedger {
    pub attempted: u64,
    pub succeeded: u64,
    /// Transport failures and typed server refusals.
    pub failed: u64,
    /// Answers that came back but disagree with the oracle.
    pub wrong: u64,
    /// Open-loop latencies (µs) in the order the requests were due.
    pub latencies_us: Vec<f64>,
    /// The open-loop window each latency's request was due in.
    pub windows: Vec<usize>,
}

impl OpLedger {
    /// Quantile `q` of the latencies of each window that has any.
    pub fn window_quantiles(&self, q: f64) -> Vec<f64> {
        let mut by_window: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (&latency, &w) in self.latencies_us.iter().zip(&self.windows) {
            by_window.entry(w).or_default().push(latency);
        }
        by_window
            .values()
            .filter_map(|v| exact_quantile(v, q))
            .collect()
    }

    /// The median over windows of each window's quantile `q`.
    pub fn typical(&self, q: f64) -> Option<f64> {
        exact_quantile(&self.window_quantiles(q), 0.5)
    }
}

/// Every op type's ledger, plus the first few wrong answers verbatim.
#[derive(Default)]
pub struct Ledger {
    pub ops: BTreeMap<Op, OpLedger>,
    pub errors: Vec<String>,
}

impl Ledger {
    pub fn op(&mut self, op: Op) -> &mut OpLedger {
        self.ops.entry(op).or_default()
    }

    fn note(&mut self, message: String) {
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    /// Record a burst's verdicts (no latency: closed-loop and checks).
    pub fn record(&mut self, jobs: &[Job], verdicts: Vec<Result<(), String>>) {
        for (job, verdict) in jobs.iter().zip(verdicts) {
            let entry = self.op(job.op);
            entry.attempted += 1;
            match verdict {
                Ok(()) => entry.succeeded += 1,
                Err(why) => {
                    entry.wrong += 1;
                    self.note(format!("{}: {why}", job.op.name()));
                }
            }
        }
    }

    /// Record a burst that failed as a whole (transport error) or a typed
    /// refusal for one job.
    pub fn record_failed(&mut self, jobs: &[Job], why: &str) {
        for job in jobs {
            let entry = self.op(job.op);
            entry.attempted += 1;
            entry.failed += 1;
        }
        self.note(format!("failed: {why}"));
    }

    pub fn attempted(&self) -> u64 {
        self.ops.values().map(|o| o.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.ops.values().map(|o| o.failed + o.wrong).sum()
    }

    pub fn wrong(&self) -> u64 {
        self.ops.values().map(|o| o.wrong).sum()
    }
}

/// Check one answer that arrived at `at`; typed server errors count as
/// failures. Returns whether the request succeeded.
pub fn settle(
    workload: &mut dyn Workload,
    job: &Job,
    result: Result<Response, ClientError>,
    at: Instant,
    ledger: &mut Ledger,
) -> bool {
    let one = std::slice::from_ref(job);
    match result {
        Ok(Response::Error { code, message }) => {
            ledger.record_failed(one, &format!("{code:?}: {message}"));
            false
        }
        Ok(response) => {
            let verdicts = workload.check(one, std::slice::from_ref(&response), at);
            ledger.record(one, verdicts);
            true
        }
        Err(e) => {
            ledger.record_failed(one, &e.to_string());
            false
        }
    }
}

/// What the generator itself did during an open-loop phase.
#[derive(Default)]
pub struct GenReport {
    /// How late the generator sent a request it was idle for (µs).
    pub late_us: Vec<f64>,
    /// Requests sent after their due time because an earlier response was
    /// still outstanding.
    pub sent_behind: u64,
    pub sent: u64,
    /// Latencies (µs) of the requests sent with a span around them; they
    /// are kept out of the ledger so the two sets can be compared.
    pub traced: Vec<(Op, f64)>,
    /// Per full window: CPU time (µs, as `cpu_now` counts it) spent while
    /// the window's requests were sent and answered, per request.
    pub cpu_us_per_op: Vec<f64>,
    /// Per full window: the CPU time (µs) of the host probe, the mean of
    /// its runs right before and right after the window.
    pub probe_us: Vec<f64>,
}

/// Offer `rate` requests per second for `span`; latencies land in the
/// ledger, tagged with the `window` of the phase they were due in, and
/// `cpu_now` (CPU seconds so far) is read at each window boundary. With a
/// tracer, every other request is sent inside a span and its latency goes
/// to [`GenReport::traced`] instead.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    router: &mut RouterClient,
    workload: &mut dyn Workload,
    rate: f64,
    span: Duration,
    window: Duration,
    cpu_now: &dyn Fn() -> f64,
    probe: &mut Probe,
    ledger: &mut Ledger,
    mut tracer: Option<&mut Tracer>,
) -> GenReport {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let total = (span.as_secs_f64() * rate) as u64;
    let per_window = (window.as_secs_f64() * rate).round() as u64;
    let mut report = GenReport::default();
    let begin = Instant::now();
    let mut idle_since = begin;
    let mut probe_before = probe.run().expect("host probe");
    let (mut cur_w, mut w_cpu, mut w_sent) = (0, cpu_now(), 0u64);
    let mut close_window = |report: &mut GenReport, sent: u64| {
        let cpu = cpu_now();
        let probe_after = probe.run().expect("host probe");
        // A short last window says little; leave it out.
        if sent * 2 >= per_window {
            report.cpu_us_per_op.push((cpu - w_cpu) * 1e6 / sent as f64);
            report.probe_us.push((probe_before + probe_after) / 2.0);
        }
        probe_before = probe_after;
        w_cpu = cpu_now();
    };
    for i in 0..total {
        let job = workload.next_job();
        let due = begin + interval.mul_f64(i as f64);
        let w = ((due - begin).as_secs_f64() / window.as_secs_f64()) as usize;
        if w != cur_w {
            close_window(&mut report, w_sent);
            (cur_w, w_sent) = (w, 0);
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        // The previous answer came back before this request was due: the
        // generator was idle and any delay past `due` is its own.
        let clock_start = if idle_since <= due {
            report.late_us.push((sent - due).as_secs_f64() * 1e6);
            sent
        } else {
            report.sent_behind += 1;
            due
        };
        let span_id = tracer
            .as_deref_mut()
            .filter(|_| i % 2 == 1)
            .map(|t| t.open(job.op.name(), 0, i));
        let result = router.call(&job.request);
        let done = Instant::now();
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span_id) {
            t.close(id);
        }
        idle_since = done;
        report.sent += 1;
        w_sent += 1;
        if settle(workload, &job, result, done, ledger) {
            let latency = (done - clock_start).as_secs_f64() * 1e6;
            if span_id.is_some() {
                report.traced.push((job.op, latency));
                continue;
            }
            let entry = ledger.op(job.op);
            entry.latencies_us.push(latency);
            entry.windows.push(w);
        }
    }
    close_window(&mut report, w_sent);
    report
}

/// What a closed-loop phase completed.
pub struct PeakReport {
    /// Per window: completion rate (answers completed by the bursts that
    /// ended in it, over the time since the previous window's last burst).
    pub windows: Vec<f64>,
    /// Correct answers over the whole phase.
    pub completed: u64,
}

/// Closed loop: bursts of `depth` requests pipelined through
/// `send_many` back to back for `span`, measured per `window`.
pub fn closed_loop(
    router: &mut RouterClient,
    workload: &mut dyn Workload,
    depth: usize,
    span: Duration,
    window: Duration,
    ledger: &mut Ledger,
) -> PeakReport {
    let mut completed = 0u64;
    let begin = Instant::now();
    let mut rates = Vec::new();
    let (mut window_start, mut window_ok) = (begin, 0u64);
    while begin.elapsed() < span {
        let jobs: Vec<Job> = (0..depth).map(|_| workload.next_job()).collect();
        let requests: Vec<Request> = jobs.iter().map(|j| j.request.clone()).collect();
        let result: Result<Vec<Response>, ClientError> = router.send_many(&requests);
        let done = Instant::now();
        match result {
            Ok(responses) => {
                let verdicts = workload.check(&jobs, &responses, done);
                for ((job, response), verdict) in jobs.iter().zip(&responses).zip(verdicts) {
                    let one = std::slice::from_ref(job);
                    if let Response::Error { code, message } = response {
                        ledger.record_failed(one, &format!("{code:?}: {message}"));
                    } else {
                        window_ok += u64::from(verdict.is_ok());
                        completed += u64::from(verdict.is_ok());
                        ledger.record(one, vec![verdict]);
                    }
                }
            }
            Err(e) => ledger.record_failed(&jobs, &e.to_string()),
        }
        if done - window_start >= window {
            rates.push(window_ok as f64 / (done - window_start).as_secs_f64());
            (window_start, window_ok) = (done, 0);
        }
    }
    PeakReport {
        windows: rates,
        completed,
    }
}

/// Median, p90 and p99 of a sample with its size, for the report.
pub fn summary(sample: &[f64]) -> Value {
    obj([
        ("n", int(sample.len() as u64)),
        ("p50", opt(exact_quantile(sample, 0.5))),
        ("p90", opt(exact_quantile(sample, 0.9))),
        ("p99", opt(exact_quantile(sample, 0.99))),
    ])
}

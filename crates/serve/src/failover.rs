//! Client-side failover across an ordered endpoint list.
//!
//! A [`FailoverClient`] holds the leader first and any followers after it.
//! Reads go to the healthiest endpoint in list order; each endpoint sits
//! behind its own [`CircuitBreaker`], so an endpoint that keeps failing is
//! taken out of rotation for a cooldown instead of eating a connect
//! timeout on every call. After the cooldown the breaker goes half-open
//! and admits a single probe: success closes the circuit, failure re-opens
//! it. Because followers converge to byte-identical snapshot answers
//! (PR 6's replication invariant), failing a read over to a follower can
//! change staleness but never correctness.
//!
//! One endpoint walk serves a single call, a pipelined burst, and a
//! scatter over several clients ([`FailoverClient::scatter`], what the
//! shard router fans out with): every leg's burst is written before any
//! answer is read, on the calling thread, and failed legs retry together
//! after one backoff.
//!
//! The breaker takes `Instant`s as arguments rather than reading the
//! clock itself, which keeps the closed → open → half-open → closed walk
//! unit-testable without sleeps.

use crate::api::Transport;
use crate::client::{ClientConfig, ClientError, FeatureClient};
use crate::protocol::{Request, Response};
use crate::retry::{classify, ErrorClass, RetryPolicy};
use fstore_common::rng::{Rng, Xoshiro256};
use std::time::{Duration, Instant};

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker refuses traffic before allowing a
    /// half-open probe.
    pub open_cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            open_cooldown: Duration::from_millis(500),
        }
    }
}

/// Observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: traffic flows, failures are counted.
    Closed,
    /// Tripped: traffic is refused until the cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one probe is in flight; its outcome
    /// decides between `Closed` and `Open`.
    HalfOpen,
}

/// A per-endpoint circuit breaker (closed → open → half-open → closed).
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    consecutive_failures: u32,
    /// `Some(when)` while open/half-open: the instant the breaker tripped.
    opened_at: Option<Instant>,
    /// True while a half-open probe is outstanding.
    probing: bool,
}

impl CircuitBreaker {
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            consecutive_failures: 0,
            opened_at: None,
            probing: false,
        }
    }

    /// The state as of `now`.
    pub fn state(&self, now: Instant) -> BreakerState {
        match self.opened_at {
            None => BreakerState::Closed,
            Some(at) if now.duration_since(at) >= self.config.open_cooldown => {
                BreakerState::HalfOpen
            }
            Some(_) => BreakerState::Open,
        }
    }

    /// Whether a call may proceed at `now`. Half-open admits only one
    /// probe at a time; callers that get `true` must report the outcome
    /// via [`CircuitBreaker::record_success`] / [`CircuitBreaker::record_failure`].
    pub fn allow(&mut self, now: Instant) -> bool {
        match self.state(now) {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                if self.probing {
                    false
                } else {
                    self.probing = true;
                    true
                }
            }
        }
    }

    /// A call succeeded: close the circuit and forget past failures.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.opened_at = None;
        self.probing = false;
    }

    /// A call failed at `now`: count it, trip the breaker at the
    /// threshold, and re-open on a failed half-open probe.
    pub fn record_failure(&mut self, now: Instant) {
        self.probing = false;
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.consecutive_failures >= self.config.failure_threshold || self.opened_at.is_some() {
            // Tripping (or re-tripping after a failed probe) restarts the
            // cooldown from this failure.
            self.opened_at = Some(now);
        }
    }

    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }
}

struct Endpoint {
    addr: String,
    breaker: CircuitBreaker,
    conn: Option<FeatureClient>,
}

/// Counters a chaos experiment reads to show the failover actually fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailoverStats {
    /// Calls answered by an endpoint other than the first (the leader).
    pub failed_over_calls: u64,
    /// Retries across all endpoints (beyond each call's first attempt).
    pub retries: u64,
    /// Calls that exhausted every endpoint and the retry budget.
    pub exhausted_calls: u64,
}

/// A client over an ordered endpoint list with per-endpoint circuit
/// breakers and retry/backoff between rounds.
pub struct FailoverClient {
    endpoints: Vec<Endpoint>,
    config: ClientConfig,
    policy: RetryPolicy,
    breaker_config: BreakerConfig,
    rng: Xoshiro256,
    stats: FailoverStats,
}

impl FailoverClient {
    /// `addrs` in preference order — leader first, then followers. Prefer
    /// [`ClientBuilder`](crate::ClientBuilder) with several endpoints,
    /// which validates the policy and breaker config first.
    #[doc(hidden)]
    pub fn connect(
        addrs: &[&str],
        config: ClientConfig,
        policy: RetryPolicy,
        breaker_config: BreakerConfig,
    ) -> Self {
        assert!(
            !addrs.is_empty(),
            "FailoverClient needs at least one endpoint"
        );
        FailoverClient {
            endpoints: addrs
                .iter()
                .map(|addr| Endpoint {
                    addr: addr.to_string(),
                    breaker: CircuitBreaker::new(breaker_config),
                    conn: None,
                })
                .collect(),
            config,
            policy,
            breaker_config,
            rng: Xoshiro256::seeded(0xfa11_04e2_9e37_79b9),
            stats: FailoverStats::default(),
        }
    }

    pub fn stats(&self) -> FailoverStats {
        self.stats
    }

    /// The breaker state of endpoint `i` (list order), for tests and
    /// experiment assertions.
    pub fn breaker_state(&self, i: usize, now: Instant) -> BreakerState {
        self.endpoints[i].breaker.state(now)
    }

    /// Pick the healthiest endpoint that will accept a call right now:
    /// first closed breaker in list order, else first half-open breaker
    /// willing to probe.
    fn pick(&mut self, now: Instant) -> Option<usize> {
        let closed = self
            .endpoints
            .iter()
            .position(|e| e.breaker.state(now) == BreakerState::Closed);
        if let Some(i) = closed {
            // Closed breakers always allow.
            self.endpoints[i].breaker.allow(now);
            return Some(i);
        }
        (0..self.endpoints.len()).find(|&i| self.endpoints[i].breaker.allow(now))
    }

    /// Write `requests` down endpoint `i`'s connection, establishing it
    /// first if needed. The error side carries whether the burst may have
    /// reached the peer: a connect failure proves the peer saw nothing,
    /// which is what lets a write failure be sealed as provably not
    /// applied.
    fn send_to(&mut self, i: usize, requests: &[Request]) -> Result<(), (ClientError, bool)> {
        let endpoint = &mut self.endpoints[i];
        if endpoint.conn.is_none() {
            match FeatureClient::connect_with(endpoint.addr.as_str(), &self.config) {
                Ok(conn) => endpoint.conn = Some(conn),
                Err(e) => return Err((ClientError::Io(e), false)),
            }
        }
        let conn = endpoint.conn.as_mut().expect("just connected");
        conn.send(requests).map_err(|e| {
            // The stream may hold half a frame; never reuse it.
            endpoint.conn = None;
            (e, true)
        })
    }

    /// Read the `n` answers to the burst last written down endpoint `i`.
    /// A failure drops the connection: answers left unread on it would
    /// otherwise be handed to the next request sent down it.
    fn recv_from(&mut self, i: usize, n: usize) -> Result<Vec<Response>, ClientError> {
        let endpoint = &mut self.endpoints[i];
        let conn = endpoint
            .conn
            .as_mut()
            .expect("a dispatched endpoint keeps its connection until read");
        conn.recv_many(n).inspect_err(|_| endpoint.conn = None)
    }

    /// The endpoint walk behind every call: run each leg — a client and
    /// the burst it must answer — to an outcome, on the calling thread.
    /// The legs move in lockstep rounds. Each round writes every pending
    /// leg's burst down the healthiest endpoint of its client, then reads
    /// every dispatched leg's answers in leg order and classifies them:
    /// a definitive answer (including a typed fatal error) settles the
    /// leg; transport failures and typed pushback (`Overloaded`,
    /// `ShuttingDown` — well-formed responses on the wire, but refusals
    /// all the same) trip that endpoint's breaker and leave the leg
    /// pending. After one backoff, the next round retries only the
    /// pending legs, while their attempt budget allows and every request
    /// in them is idempotent.
    ///
    /// Two invariants keep pooled connections in step with their
    /// requests: an answered leg is never re-sent, and every burst
    /// written in a round has been read, or its connection dropped,
    /// before the round ends.
    fn walk(legs: &mut [Leg<'_>]) {
        let mut attempt: u32 = 0;
        loop {
            let now = Instant::now();
            for leg in legs.iter_mut().filter(|l| l.outcome.is_none()) {
                leg.dispatch(now);
            }
            for leg in legs.iter_mut() {
                leg.collect();
            }
            let mut backoff: Option<Duration> = None;
            for leg in legs.iter_mut().filter(|l| l.outcome.is_none()) {
                let policy = leg.client.policy;
                if leg.write.is_some() || attempt + 1 >= policy.max_attempts {
                    leg.exhaust();
                } else {
                    let unit = leg.client.rng.next_f64();
                    backoff = backoff.max(Some(policy.backoff(attempt, unit)));
                    leg.client.stats.retries += 1;
                }
            }
            let Some(backoff) = backoff else {
                return;
            };
            std::thread::sleep(backoff);
            attempt += 1;
        }
    }

    /// Send one burst per client and gather every answer: the requests
    /// all go out before the first answer is read, so the servers work
    /// in parallel while only the calling thread waits, and no thread is
    /// started. Each leg keeps the retry, breaker and write-sealing rules
    /// of [`FailoverClient::call_many`]; outcomes come back in leg order.
    pub fn scatter(
        legs: Vec<(&mut FailoverClient, &[Request])>,
    ) -> Vec<Result<Vec<Response>, ClientError>> {
        let mut legs: Vec<Leg<'_>> = legs
            .into_iter()
            .map(|(client, requests)| Leg::new(client, requests))
            .collect();
        Self::walk(&mut legs);
        legs.into_iter().map(Leg::into_outcome).collect()
    }

    /// Send one request, walking endpoints healthiest-first with retries
    /// and backoff. Non-idempotent requests get exactly one attempt, and
    /// a transport failure of one is sealed as
    /// [`ClientError::WriteFailed`] (see
    /// [`crate::retry::seal_write_failure`]).
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let mut responses = self.call_many(std::slice::from_ref(request))?;
        Ok(responses.pop().expect("one answer per request"))
    }

    /// Pipeline a batch on the healthiest endpoint
    /// ([`FeatureClient::call_many`]) with the same endpoint walk as
    /// [`FailoverClient::call`]. The batch is the retry unit: it moves to
    /// another endpoint only when *every* request in it is idempotent,
    /// and one typed pushback response fails (and re-routes) the whole
    /// batch — responses are positional, so a partially-shed batch has no
    /// honest success value.
    pub fn call_many(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        let mut leg = [Leg::new(self, requests)];
        Self::walk(&mut leg);
        let [leg] = leg;
        leg.into_outcome()
    }

    /// Expose the breaker config (tests construct matching breakers).
    pub fn breaker_config(&self) -> BreakerConfig {
        self.breaker_config
    }

    /// The current endpoint list, in preference order.
    pub fn endpoints(&self) -> Vec<String> {
        self.endpoints.iter().map(|e| e.addr.clone()).collect()
    }

    /// Replace the endpoint list (leader first). Endpoints that stay in
    /// the list keep their live connection and breaker history; new ones
    /// start with a fresh closed breaker. The shard router calls this when
    /// the control plane publishes a new shard map — e.g. after a
    /// promotion rotates a dead leader behind its followers.
    pub fn set_endpoints(&mut self, addrs: &[&str]) {
        assert!(
            !addrs.is_empty(),
            "FailoverClient needs at least one endpoint"
        );
        let mut old: Vec<Endpoint> = std::mem::take(&mut self.endpoints);
        self.endpoints = addrs
            .iter()
            .map(|addr| match old.iter().position(|e| e.addr == *addr) {
                Some(i) => old.swap_remove(i),
                None => Endpoint {
                    addr: addr.to_string(),
                    breaker: CircuitBreaker::new(self.breaker_config),
                    conn: None,
                },
            })
            .collect();
    }
}

/// One leg of [`FailoverClient::walk`]: a client and the burst it must
/// answer.
struct Leg<'a> {
    client: &'a mut FailoverClient,
    requests: &'a [Request],
    /// The burst's first non-idempotent request. A leg holding one gets
    /// exactly one attempt, and its failure is sealed against it.
    write: Option<&'a Request>,
    /// The endpoint written this round whose answers are still unread.
    in_flight: Option<usize>,
    /// The latest failure, and whether its burst was dispatched.
    last_err: Option<(ClientError, bool)>,
    outcome: Option<Result<Vec<Response>, ClientError>>,
}

impl<'a> Leg<'a> {
    fn new(client: &'a mut FailoverClient, requests: &'a [Request]) -> Self {
        Leg {
            client,
            requests,
            write: requests.iter().find(|r| !r.is_idempotent()),
            in_flight: None,
            last_err: None,
            // Nothing to send is answered at once.
            outcome: requests.is_empty().then(|| Ok(Vec::new())),
        }
    }

    /// Pick this round's endpoint and write the burst down it.
    fn dispatch(&mut self, now: Instant) {
        match self.client.pick(now) {
            Some(i) => match self.client.send_to(i, self.requests) {
                Ok(()) => self.in_flight = Some(i),
                Err((error, dispatched)) => self.fail(i, error, dispatched),
            },
            None => {
                // Every breaker is open; treat it like a shed and back
                // off until a cooldown admits a probe. Nothing was
                // dispatched this round.
                if self.last_err.is_none() {
                    self.last_err = Some((
                        ClientError::Io(std::io::Error::new(
                            std::io::ErrorKind::ConnectionRefused,
                            "all endpoints circuit-broken",
                        )),
                        false,
                    ));
                }
            }
        }
    }

    /// Read and classify the answers to this round's burst, if one went
    /// out.
    fn collect(&mut self) {
        let Some(i) = self.in_flight.take() else {
            return;
        };
        match self.client.recv_from(i, self.requests.len()) {
            Ok(responses) => match responses.iter().find_map(crate::retry::pushback) {
                Some(error) => {
                    self.client.endpoints[i]
                        .breaker
                        .record_failure(Instant::now());
                    self.last_err = Some((error, true));
                }
                None => {
                    self.client.endpoints[i].breaker.record_success();
                    if i != 0 {
                        self.client.stats.failed_over_calls += 1;
                    }
                    self.outcome = Some(Ok(responses));
                }
            },
            Err(error) => self.fail(i, error, true),
        }
    }

    fn fail(&mut self, i: usize, error: ClientError, dispatched: bool) {
        self.client.endpoints[i]
            .breaker
            .record_failure(Instant::now());
        if classify(&error) == ErrorClass::Fatal {
            // A definitive server answer; another endpoint would
            // (byte-identically) say the same.
            self.outcome = Some(Err(error));
        } else {
            self.last_err = Some((error, dispatched));
        }
    }

    /// Settle the leg with its last failure, sealed if it holds a write.
    fn exhaust(&mut self) {
        self.client.stats.exhausted_calls += 1;
        let (error, dispatched) = self
            .last_err
            .take()
            .expect("a pending leg always records an error");
        self.outcome = Some(Err(match self.write {
            Some(write) => crate::retry::seal_write_failure(write, dispatched, error),
            None => error,
        }));
    }

    fn into_outcome(self) -> Result<Vec<Response>, ClientError> {
        self.outcome.expect("the walk settles every leg")
    }
}

impl Transport for FailoverClient {
    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        FailoverClient::call(self, request)
    }

    fn call_many(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        FailoverClient::call_many(self, requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, cooldown_ms: u64) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            open_cooldown: Duration::from_millis(cooldown_ms),
        })
    }

    #[test]
    fn walks_closed_open_half_open_closed() {
        let t0 = Instant::now();
        let mut b = breaker(2, 100);
        assert_eq!(b.state(t0), BreakerState::Closed);
        assert!(b.allow(t0));
        b.record_failure(t0);
        assert_eq!(
            b.state(t0),
            BreakerState::Closed,
            "one failure under threshold"
        );
        b.record_failure(t0);
        assert_eq!(
            b.state(t0),
            BreakerState::Open,
            "threshold trips the breaker"
        );
        assert!(!b.allow(t0), "open refuses traffic");

        let later = t0 + Duration::from_millis(100);
        assert_eq!(b.state(later), BreakerState::HalfOpen);
        assert!(b.allow(later), "half-open admits one probe");
        assert!(!b.allow(later), "…but only one");
        b.record_success();
        assert_eq!(b.state(later), BreakerState::Closed);
        assert_eq!(b.consecutive_failures(), 0);
    }

    #[test]
    fn failed_probe_reopens_with_a_fresh_cooldown() {
        let t0 = Instant::now();
        let mut b = breaker(1, 100);
        b.record_failure(t0);
        assert_eq!(b.state(t0), BreakerState::Open);

        let probe_at = t0 + Duration::from_millis(150);
        assert!(b.allow(probe_at));
        b.record_failure(probe_at);
        assert_eq!(
            b.state(probe_at + Duration::from_millis(60)),
            BreakerState::Open,
            "cooldown restarts from the failed probe, not the original trip"
        );
        assert_eq!(
            b.state(probe_at + Duration::from_millis(100)),
            BreakerState::HalfOpen
        );
    }

    #[test]
    fn success_resets_the_failure_count() {
        let t0 = Instant::now();
        let mut b = breaker(3, 100);
        b.record_failure(t0);
        b.record_failure(t0);
        b.record_success();
        b.record_failure(t0);
        assert_eq!(
            b.state(t0),
            BreakerState::Closed,
            "streak broken by a success never trips"
        );
    }
}

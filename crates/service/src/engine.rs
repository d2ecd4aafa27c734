//! The serving engine: admission control, duplicate coalescing, and the
//! two-tier result cache, independent of any transport.
//!
//! A request names `(experiment, platform spec, fidelity)`. Because every
//! result is a pure function of that tuple (the determinism contract the
//! sweep executor enforces), the engine can:
//!
//! * serve repeats from the content-addressed cache
//!   ([`crate::cache`]) — memory first, then the on-disk spill;
//! * **coalesce** identical in-flight requests: N clients asking for the
//!   same tuple trigger exactly one computation, and the N−1 duplicates
//!   block on the owner's flight and share its result;
//! * enforce **backpressure**: at most `workers` computations run
//!   concurrently, at most `queue_depth` more may wait for a slot, and
//!   the summed registry wall budgets of admitted-but-unfinished work may
//!   not exceed `max_backlog_ms` — beyond either bound a request is
//!   answered `busy` instead of queueing unboundedly.
//!
//! Computations run as request-sized sweeps on the existing
//! [`experiments::sweep`] executor (staging directory, panic isolation,
//! canonical manifest), so a crash in an experiment body degrades one
//! response, never the server.

use crate::auth::{AuthConfig, TokenBucket, ANON_TENANT, FLEET_TENANT};
use crate::cache::{staging_dir, CacheKey, CachedResult, DiskStore, LruCache};
use crate::faults::{FaultLottery, ServiceFaults};
use crate::fleet::{Fleet, FleetConfig};
use crate::stats::{Gauges, StatsInner, StatsSnapshot};
use crate::sync::{lock, wait_timeout_recover};
use experiments::manifest::RunStatus;
use experiments::output::ExperimentOutput;
use experiments::platforms::{try_config_by_name, Fidelity};
use experiments::registry::{run_experiment, Experiment};
use experiments::snapshot::read_tree;
use experiments::sweep::{default_jobs, run_sweep_with, SweepConfig};
use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One analysis request: the tuple results are content-addressed by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Which experiment to run.
    pub experiment: Experiment,
    /// Platform spec, optional fault suffix included.
    pub platform: String,
    /// Problem-size fidelity.
    pub fidelity: Fidelity,
}

impl Request {
    /// Builds a request.
    pub fn new(experiment: Experiment, platform: impl Into<String>, fidelity: Fidelity) -> Self {
        Request {
            experiment,
            platform: platform.into(),
            fidelity,
        }
    }

    /// The content address of this request's result.
    pub fn cache_key(&self) -> CacheKey {
        CacheKey::new(self.experiment, &self.platform, self.fidelity)
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// On-disk spill root; `None` keeps the cache memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Byte budget of the in-memory LRU tier.
    pub mem_budget_bytes: usize,
    /// Concurrent computations (worker slots).
    pub workers: usize,
    /// Admitted computations allowed to wait for a slot before new
    /// requests are answered `busy`.
    pub queue_depth: usize,
    /// Cap on the summed registry wall budgets of admitted-but-unfinished
    /// computations — backpressure in *time*, not just count.
    pub max_backlog_ms: u64,
    /// Optional hard ceiling on the derived deadline, in milliseconds.
    /// Chaos tests pin this low to prove a wedged computation cannot hold
    /// coalesced waiters hostage.
    pub deadline_cap_ms: Option<u64>,
    /// Fault-injection knobs for the chaos harness — disk, compute, and
    /// the server's mid-request disconnect; disabled by default.
    pub faults: ServiceFaults,
    /// Client identity + fair-share quotas ([`crate::auth`]); the
    /// default is fully open (no tokens, no quotas).
    pub auth: AuthConfig,
    /// Fleet topology for consistent-hash cache sharing
    /// ([`crate::fleet`]); `None` runs a standalone node.
    pub fleet: Option<FleetConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_dir: None,
            mem_budget_bytes: 64 << 20,
            workers: default_jobs(),
            queue_depth: 64,
            max_backlog_ms: 30 * 60_000,
            deadline_cap_ms: None,
            faults: ServiceFaults::default(),
            auth: AuthConfig::default(),
            fleet: None,
        }
    }
}

/// Deadline headroom as a multiple of the experiment's registry wall
/// budget: a request may wait `budget × factor + slack` before it is
/// answered with a `timeout` error instead of blocking further.
const DEADLINE_FACTOR: u64 = 2;

/// Flat slack added to every deadline, in milliseconds — keeps the
/// deadline meaningful for experiments with tiny budgets.
const DEADLINE_SLACK_MS: u64 = 1_000;

impl EngineConfig {
    /// The wall-clock deadline (in milliseconds from submission) granted
    /// to a request whose experiment has the given registry budget.
    pub fn deadline_ms(&self, budget_ms: u64) -> u64 {
        let derived = budget_ms.saturating_mul(DEADLINE_FACTOR) + DEADLINE_SLACK_MS;
        match self.deadline_cap_ms {
            Some(cap) => derived.min(cap),
            None => derived,
        }
    }
}

/// Where a response's payload came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Computed by this request.
    Computed,
    /// Shared with an identical in-flight request's computation.
    Coalesced,
    /// Served from the in-memory cache.
    Mem,
    /// Served from the on-disk store.
    Disk,
    /// Fetched from the fleet peer that owns this digest.
    Peer,
}

impl Source {
    /// Protocol string for this source.
    pub fn as_str(self) -> &'static str {
        match self {
            Source::Computed => "computed",
            Source::Coalesced => "coalesced",
            Source::Mem => "mem",
            Source::Disk => "disk",
            Source::Peer => "peer",
        }
    }

    /// True when the request was answered without (waiting for) a
    /// computation.
    pub fn is_hit(self) -> bool {
        matches!(self, Source::Mem | Source::Disk)
    }
}

/// A successfully answered request.
#[derive(Debug, Clone)]
pub struct Done {
    /// The result payload (shared with the cache and any coalesced
    /// duplicates).
    pub result: Arc<CachedResult>,
    /// Where the payload came from.
    pub source: Source,
    /// End-to-end latency of *this* request in milliseconds (queue wait
    /// included).
    pub elapsed_ms: u64,
    /// The experiment's registry wall budget at this fidelity.
    pub budget_ms: u64,
    /// True when the computation behind this result ran over that budget.
    pub over_budget: bool,
}

/// What [`Engine::submit`] hands back.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Answered with a result (pass, degraded, or failed — see
    /// [`CachedResult::status`]).
    Done(Done),
    /// Rejected by backpressure; retry later.
    Busy {
        /// Computations waiting for a worker slot at rejection time.
        queued: usize,
        /// Budgeted backlog at rejection time, in milliseconds.
        backlog_ms: u64,
    },
    /// Rejected up front: the platform spec did not resolve.
    Invalid(String),
    /// The request's wall-clock deadline expired before a result was
    /// available — a wedged or overloaded computation no longer blocks
    /// the connection. Retryable: the owner (if any) still publishes its
    /// result for future requests when it eventually finishes.
    TimedOut {
        /// How long this request actually waited, in milliseconds.
        waited_ms: u64,
        /// The deadline it was granted, in milliseconds.
        deadline_ms: u64,
    },
    /// Rejected by the requesting tenant's fair-share quota (token
    /// bucket or outstanding-wall-budget cap). Retryable: the bucket
    /// refills continuously and admitted work drains.
    Quota {
        /// The tenant whose quota rejected the request.
        tenant: String,
        /// Hint: how long until admission is plausible, in milliseconds.
        retry_after_ms: u64,
    },
}

/// The experiment body the engine schedules; injectable for tests.
pub type ComputeFn = dyn Fn(Experiment, &str, Fidelity) -> ExperimentOutput + Send + Sync;

/// Lifecycle of one coalesced computation's shared result slot.
enum FlightState {
    /// The owner is still computing (or waiting for a slot).
    Pending,
    /// The result is published; every waiter shares this `Arc`.
    Ready(Arc<CachedResult>),
    /// The owner gave up before computing (its deadline expired while it
    /// waited for a worker slot); waiters must stop waiting too.
    Abandoned,
}

struct Flight {
    state: Mutex<FlightState>,
    ready: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            state: Mutex::new(FlightState::Pending),
            ready: Condvar::new(),
        }
    }

    fn publish(&self, result: Arc<CachedResult>) {
        *lock(&self.state) = FlightState::Ready(result);
        self.ready.notify_all();
    }

    fn abandon(&self) {
        *lock(&self.state) = FlightState::Abandoned;
        self.ready.notify_all();
    }

    /// Waits for the result until `deadline`; `None` means the deadline
    /// expired or the owner abandoned the flight — either way the waiter
    /// must answer `timeout` instead of blocking further.
    fn wait_until(&self, deadline: Instant) -> Option<Arc<CachedResult>> {
        let mut state = lock(&self.state);
        loop {
            match &*state {
                FlightState::Ready(result) => return Some(result.clone()),
                FlightState::Abandoned => return None,
                FlightState::Pending => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    let (next, _timed_out) =
                        wait_timeout_recover(&self.ready, state, deadline - now);
                    state = next;
                }
            }
        }
    }
}

/// One tenant's admission state: its refilling token bucket and the
/// summed wall budgets of its admitted-but-unfinished computations.
struct TenantAdmission {
    bucket: TokenBucket,
    outstanding_ms: u64,
    cap_ms: u64,
}

struct State {
    cache: LruCache,
    inflight: HashMap<String, Arc<Flight>>,
    running: usize,
    queued: usize,
    backlog_ms: u64,
    tenants: HashMap<String, TenantAdmission>,
}

impl State {
    /// This tenant's admission state, created on first touch (bucket
    /// full, nothing outstanding) from the auth config's weights.
    fn admission(&mut self, cfg: &EngineConfig, tenant: &str) -> &mut TenantAdmission {
        if !self.tenants.contains_key(tenant) {
            let auth = &cfg.auth;
            let quota = auth.quota.as_ref().expect("admission needs quotas enabled");
            self.tenants.insert(
                tenant.to_string(),
                TenantAdmission {
                    bucket: TokenBucket::new(quota, auth.weight_of(tenant), Instant::now()),
                    outstanding_ms: 0,
                    cap_ms: auth.backlog_cap_ms(tenant, cfg.max_backlog_ms),
                },
            );
        }
        self.tenants.get_mut(tenant).expect("just inserted")
    }
}

struct Inner {
    cfg: EngineConfig,
    disk: Option<DiskStore>,
    fleet: Option<Arc<Fleet>>,
    compute: Box<ComputeFn>,
    state: Mutex<State>,
    slot_free: Condvar,
    stats: Mutex<StatsInner>,
    lottery: Arc<FaultLottery>,
    /// Raised by the `drain` admin command: new computations are
    /// refused with `busy` (retryable, so clients fail over) while
    /// cache hits and already-admitted work still serve — the node
    /// empties out and can `leave` without dropping anything.
    draining: AtomicBool,
}

/// The shared, clonable serving engine. Clones are handles onto one
/// state; every connection thread gets one.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<Inner>,
}

impl Engine {
    /// Builds an engine that computes with the real experiment registry.
    pub fn new(cfg: EngineConfig) -> Engine {
        Engine::with_compute(cfg, run_experiment)
    }

    /// Builds an engine with an injectable experiment body — the same
    /// test seam as [`experiments::sweep::run_sweep_with`].
    pub fn with_compute<F>(cfg: EngineConfig, compute: F) -> Engine
    where
        F: Fn(Experiment, &str, Fidelity) -> ExperimentOutput + Send + Sync + 'static,
    {
        let lottery = Arc::new(cfg.faults.lottery());
        let disk = cfg
            .cache_dir
            .as_ref()
            .map(|root| DiskStore::with_faults(root, Arc::clone(&lottery)));
        if let Some(disk) = &disk {
            // A killed predecessor may have left `.tmp-*`/`.staging`
            // debris under this root; sweep it before serving.
            if let Err(e) = disk.sweep_stale() {
                eprintln!("roofd: stale-tmp sweep failed: {e}");
            }
        }
        let fleet = cfg.fleet.clone().map(|f| Arc::new(Fleet::new(f)));
        Engine {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    cache: LruCache::new(cfg.mem_budget_bytes),
                    inflight: HashMap::new(),
                    running: 0,
                    queued: 0,
                    backlog_ms: 0,
                    tenants: HashMap::new(),
                }),
                slot_free: Condvar::new(),
                stats: Mutex::new(StatsInner::default()),
                disk,
                fleet,
                compute: Box::new(compute),
                lottery,
                cfg,
                draining: AtomicBool::new(false),
            }),
        }
    }

    /// The fleet handle, when this node is part of one — shared with
    /// the [`crate::fleet::HealthProber`] and the admin commands.
    pub fn fleet(&self) -> Option<Arc<Fleet>> {
        self.inner.fleet.clone()
    }

    /// Raises or clears the drain gate — see [`Engine::draining`].
    pub fn set_draining(&self, draining: bool) {
        self.inner.draining.store(draining, Ordering::Relaxed);
    }

    /// True while this node refuses new computations (`drain` admin
    /// command): fresh flights answer `busy`, cache hits and
    /// already-admitted work still serve.
    pub fn draining(&self) -> bool {
        self.inner.draining.load(Ordering::Relaxed)
    }

    /// Resolves a bearer token against the static token file; `None`
    /// for an unknown token (the connection stays anonymous). Returns
    /// `(tenant, weight)`.
    pub fn authenticate(&self, token: &str) -> Option<(String, f64)> {
        self.inner
            .cfg
            .auth
            .authenticate(token)
            .map(|t| (t.name.clone(), t.weight))
    }

    /// The fleet, when `fleet_token` proves membership against this
    /// node's configured fleet secret — the gate on every secret-only
    /// command and on treating a `run` as a peer fetch. Always `None` on
    /// a standalone node or for a missing token, so an anonymous client
    /// cannot exempt itself from quota charging.
    pub fn verify_peer(&self, fleet_token: Option<&str>) -> Option<Arc<Fleet>> {
        let fleet = self.inner.fleet.as_ref()?;
        fleet
            .config()
            .accepts_token(fleet_token?)
            .then(|| Arc::clone(fleet))
    }

    /// Serves one request, blocking until it is answered or rejected.
    ///
    /// Identical concurrent requests are coalesced onto one computation;
    /// distinct requests beyond the worker/queue/backlog bounds are
    /// answered [`Outcome::Busy`] instead of queueing without limit; and
    /// every request carries a wall-clock deadline (derived from its
    /// experiment's registry budget, see [`EngineConfig::deadline_ms`])
    /// past which it is answered [`Outcome::TimedOut`] rather than
    /// blocking on a wedged computation forever. The owner of a flight
    /// that has already started computing runs to completion and
    /// publishes its result — the experiment body cannot be aborted — so
    /// a late owner answers late, but its coalesced waiters never do.
    pub fn submit(&self, req: &Request) -> Outcome {
        self.submit_with(req, ANON_TENANT)
    }

    /// [`Engine::submit`] accounted to `tenant` (fair-share quotas,
    /// served counters). The reserved [`FLEET_TENANT`] marks a verified
    /// fleet-internal peer fetch: served locally (no further forwarding)
    /// and exempt from quota charging, since the ingress node already
    /// charged the originating tenant. Callers pass it only after
    /// [`Engine::verify_peer`] accepted the request's fleet token; token
    /// files cannot name it.
    pub fn submit_with(&self, req: &Request, tenant: &str) -> Outcome {
        let start = Instant::now();
        if let Err(e) = try_config_by_name(&req.platform) {
            lock(&self.inner.stats).invalid += 1;
            return Outcome::Invalid(e.to_string());
        }
        let key = req.cache_key();
        let digest = key.digest();
        let budget_ms = req.experiment.wall_budget_ms(req.fidelity);
        let deadline_ms = self.inner.cfg.deadline_ms(budget_ms);
        let deadline = start + Duration::from_millis(deadline_ms);
        let quotas = self.inner.cfg.auth.quotas_enabled() && tenant != FLEET_TENANT;

        enum Role {
            Hit(Arc<CachedResult>),
            Waiter(Arc<Flight>),
            Owner(Arc<Flight>),
        }

        let role = {
            let mut st = lock(&self.inner.state);
            // The rate-limit dimension: every request (hit or miss)
            // drains one token from its tenant's weighted bucket, so a
            // flooding tenant degrades to its fair share before it can
            // saturate the global queue bounds below.
            if quotas {
                let admission = st.admission(&self.inner.cfg, tenant);
                if let Err(retry_after_ms) = admission.bucket.try_take(Instant::now()) {
                    drop(st);
                    return self.quota_rejected(tenant, retry_after_ms);
                }
            }
            if let Some(result) = st.cache.get(&digest) {
                lock(&self.inner.stats).mem_hits += 1;
                Role::Hit(result)
            } else if let Some(flight) = st.inflight.get(&digest) {
                lock(&self.inner.stats).coalesced += 1;
                Role::Waiter(flight.clone())
            } else {
                // Bounded admission: total admitted work may not exceed
                // the worker slots plus the queue allowance, and the
                // budgeted backlog may not exceed its cap. An idle engine
                // always admits one request, whatever its budget —
                // otherwise a single over-cap experiment could never run.
                let over_queue = st.running + st.queued
                    >= self.inner.cfg.workers.max(1) + self.inner.cfg.queue_depth;
                let over_backlog = st.backlog_ms > 0
                    && st.backlog_ms + budget_ms > self.inner.cfg.max_backlog_ms;
                // A draining node admits nothing new: hits and
                // coalesced joins above still serve, but a fresh flight
                // is refused with a retryable `busy` so the client
                // fails over while in-flight work finishes.
                if self.draining() || over_queue || over_backlog {
                    lock(&self.inner.stats).busy += 1;
                    return Outcome::Busy {
                        queued: st.queued,
                        backlog_ms: st.backlog_ms,
                    };
                }
                // The wall-budget dimension: a tenant's admitted-but-
                // unfinished computations may not exceed its weighted
                // slice of the global backlog cap. Same idle-tenant
                // exception as the global bound.
                if quotas {
                    let admission = st.admission(&self.inner.cfg, tenant);
                    if admission.outstanding_ms > 0
                        && admission.outstanding_ms + budget_ms > admission.cap_ms
                    {
                        drop(st);
                        let retry_after_ms = (budget_ms / 2).clamp(100, 60_000);
                        return self.quota_rejected(tenant, retry_after_ms);
                    }
                    admission.outstanding_ms += budget_ms;
                }
                let flight = Arc::new(Flight::new());
                st.inflight.insert(digest.clone(), flight.clone());
                st.queued += 1;
                st.backlog_ms += budget_ms;
                Role::Owner(flight)
            }
        };

        let (result, source) = match role {
            Role::Hit(result) => (result, Source::Mem),
            Role::Waiter(flight) => match flight.wait_until(deadline) {
                Some(result) => (result, Source::Coalesced),
                None => return self.timed_out(start, deadline_ms),
            },
            Role::Owner(flight) => {
                let owned = self.run_owned(
                    req, tenant, quotas, &key, &digest, budget_ms, deadline, &flight,
                );
                match owned {
                    Some(pair) => pair,
                    None => return self.timed_out(start, deadline_ms),
                }
            }
        };

        let elapsed_ms = start.elapsed().as_millis() as u64;
        let over_budget = matches!(source, Source::Computed | Source::Coalesced)
            && result.compute_ms.is_some_and(|ms| ms > budget_ms);
        {
            let mut stats = lock(&self.inner.stats);
            stats.record_latency(elapsed_ms);
            stats.tenant(tenant).served += 1;
            if over_budget && source == Source::Computed {
                stats.over_budget += 1;
            }
        }
        Outcome::Done(Done {
            result,
            source,
            elapsed_ms,
            budget_ms,
            over_budget,
        })
    }

    /// Counts and builds a deadline-expiry outcome.
    fn timed_out(&self, start: Instant, deadline_ms: u64) -> Outcome {
        lock(&self.inner.stats).timeouts += 1;
        Outcome::TimedOut {
            waited_ms: start.elapsed().as_millis() as u64,
            deadline_ms,
        }
    }

    /// Counts and builds a quota-rejection outcome.
    fn quota_rejected(&self, tenant: &str, retry_after_ms: u64) -> Outcome {
        let mut stats = lock(&self.inner.stats);
        stats.quota_rejections += 1;
        stats.tenant(tenant).quota_rejections += 1;
        Outcome::Quota {
            tenant: tenant.to_string(),
            retry_after_ms,
        }
    }

    /// Counts one connection shed by the server's concurrency gate.
    pub(crate) fn note_shed(&self) {
        lock(&self.inner.stats).shed += 1;
    }

    /// The process's one fault lottery, which the server draws its
    /// mid-request disconnects from.
    pub(crate) fn lottery(&self) -> &FaultLottery {
        &self.inner.lottery
    }

    /// The owner path: wait for a worker slot (bounded by the request's
    /// deadline), probe the disk tier, and compute on a miss; then
    /// publish to cache, flight, and disk. Returns `None` when the
    /// deadline expired before a slot freed — the flight is abandoned and
    /// all admission accounting rolled back, so a saturated engine sheds
    /// the request cleanly instead of wedging it in the queue.
    #[allow(clippy::too_many_arguments)]
    fn run_owned(
        &self,
        req: &Request,
        tenant: &str,
        quotas: bool,
        key: &CacheKey,
        digest: &str,
        budget_ms: u64,
        deadline: Instant,
        flight: &Arc<Flight>,
    ) -> Option<(Arc<CachedResult>, Source)> {
        {
            let mut st = lock(&self.inner.state);
            while st.running >= self.inner.cfg.workers.max(1) {
                let now = Instant::now();
                if now >= deadline {
                    st.queued -= 1;
                    st.backlog_ms -= budget_ms;
                    if quotas {
                        st.admission(&self.inner.cfg, tenant).outstanding_ms -= budget_ms;
                    }
                    st.inflight.remove(digest);
                    drop(st);
                    flight.abandon();
                    return None;
                }
                let (next, _timed_out) =
                    wait_timeout_recover(&self.inner.slot_free, st, deadline - now);
                st = next;
            }
            st.queued -= 1;
            st.running += 1;
        }

        let (result, source) = match self.inner.disk.as_ref().and_then(|d| d.load(key)) {
            Some(loaded) => {
                lock(&self.inner.stats).disk_hits += 1;
                (Arc::new(loaded), Source::Disk)
            }
            None => {
                // Spill like a computation: a peer-served result is as
                // durable as a local one.
                let (result, source) = match self.peer_fetch(req, tenant, digest, deadline) {
                    Some(fetched) => (Arc::new(fetched), Source::Peer),
                    None => {
                        lock(&self.inner.stats).misses += 1;
                        (Arc::new(self.compute(req, digest)), Source::Computed)
                    }
                };
                self.spill(key, &result);
                (result, source)
            }
        };

        {
            let mut st = lock(&self.inner.state);
            if result.cacheable() {
                let evicted = st.cache.insert(digest.to_string(), result.clone());
                lock(&self.inner.stats).evictions += evicted as u64;
            }
            st.inflight.remove(digest);
            st.running -= 1;
            st.backlog_ms -= budget_ms;
            if quotas {
                st.admission(&self.inner.cfg, tenant).outstanding_ms -= budget_ms;
            }
        }
        self.inner.slot_free.notify_all();
        flight.publish(result.clone());
        if source == Source::Computed {
            self.replicate_push(req, digest, &result);
        }
        Some((result, source))
    }

    /// Best-effort replication of a fresh compute: when this node owns
    /// `digest` in the live view, push the result to the digest's
    /// rendezvous successor (the node that inherits ownership if this
    /// one dies) via the authenticated `replicate` command. Synchronous
    /// and bounded by the fleet's per-attempt I/O timeout, so tests can
    /// assert on the replica deterministically; a failed push only
    /// counts as a failure observation against the successor.
    fn replicate_push(&self, req: &Request, digest: &str, result: &CachedResult) {
        let Some(fleet) = self.inner.fleet.as_ref() else {
            return;
        };
        if !result.cacheable() || !fleet.is_owner(digest) {
            return;
        }
        let Some(successor) = fleet.successor(digest) else {
            return;
        };
        match fleet.replicate(&successor, req, result) {
            Ok(()) => {
                fleet.mark_success(&successor);
                lock(&self.inner.stats).replica_pushes += 1;
            }
            Err(e) => {
                eprintln!("roofd: replica push of {digest} to {successor} failed: {e}");
                fleet.mark_failure(&successor);
            }
        }
    }

    /// Writes a cacheable result to the disk tier, when there is one. A
    /// failed write only costs a future disk hit, so it is logged.
    fn spill(&self, key: &CacheKey, result: &CachedResult) {
        if let (true, Some(disk)) = (result.cacheable(), &self.inner.disk) {
            if let Err(e) = disk.store(key, result) {
                eprintln!("roofd: could not spill {} to disk: {e}", key.canonical());
            }
        }
    }

    /// Installs a result pushed by the digest's owner into this node's
    /// caches (memory, and disk when configured) — the receiving side
    /// of `replicate`. The protocol layer gates this on a verified
    /// fleet token. Returns false for a non-cacheable result.
    pub fn install_replica(&self, req: &Request, result: CachedResult) -> bool {
        if !result.cacheable() {
            return false;
        }
        let key = req.cache_key();
        let digest = key.digest();
        let result = Arc::new(result);
        self.spill(&key, &result);
        {
            let mut st = lock(&self.inner.state);
            let evicted = st.cache.insert(digest, result);
            lock(&self.inner.stats).evictions += evicted as u64;
        }
        lock(&self.inner.stats).replica_installs += 1;
        true
    }

    /// Attempts a cache-peer fetch: when a fleet is configured, this node
    /// is not the digest's owner, and the request did not itself arrive
    /// from a peer (no forwarding chains), ask the owner — and when the
    /// owner is down, the node that inherits the digest without it (the
    /// rendezvous successor, which holds a pushed replica of everything
    /// the owner computed), so an owner death costs one extra hop, not a
    /// recompute. Every fetch outcome doubles as a health observation on
    /// the membership view. The fetch runs with a worker slot held, so
    /// it is bounded by the request's own deadline as well as the
    /// fleet's per-attempt I/O timeout — a dead owner cannot pin this
    /// slot past the point where the client would time out anyway.
    /// `None` means "compute locally" — standalone node, owned digest,
    /// exhausted deadline, or both fetches failing (counted as a peer
    /// miss).
    fn peer_fetch(
        &self,
        req: &Request,
        tenant: &str,
        digest: &str,
        deadline: Instant,
    ) -> Option<CachedResult> {
        if tenant == FLEET_TENANT {
            return None;
        }
        let fleet = self.inner.fleet.as_ref()?;
        let mut next = Some(fleet.remote_owner(digest)?);
        if Instant::now() >= deadline {
            // Too late for network round trips; not a peer miss — the
            // fetch was never attempted.
            return None;
        }
        for replica in [false, true] {
            let Some(from) = next.take() else { break };
            match fleet.fetch(&from, req, deadline) {
                Ok(result) => {
                    fleet.mark_success(&from);
                    let mut stats = lock(&self.inner.stats);
                    stats.peer_hits += 1;
                    stats.replica_hits += replica as u64;
                    stats.tenant(tenant).peer_hits += 1;
                    return Some(result);
                }
                Err(e) => {
                    let what = if replica { "replica" } else { "peer" };
                    eprintln!("roofd: {what} fetch from {from} failed: {e}");
                    fleet.mark_failure(&from);
                }
            }
            // The replica path: whoever owns the digest once the owner is
            // gone is where the owner pushed its replica. Skip when that
            // is this node (anything we hold would already have been a
            // mem hit) or the deadline is spent.
            next = fleet
                .owner_excluding(digest, &from)
                .filter(|f| *f != fleet.config().self_addr && Instant::now() < deadline);
        }
        let mut stats = lock(&self.inner.stats);
        stats.peer_misses += 1;
        stats.tenant(tenant).peer_misses += 1;
        None
    }

    /// Runs the request as a single-experiment sweep into a staging
    /// directory and packages the normalized artifact tree.
    fn compute(&self, req: &Request, digest: &str) -> CachedResult {
        // The wedged-engine chaos knob: stall here so deadline handling
        // can be exercised without a genuinely slow experiment.
        self.inner.lottery.delay_compute();
        let staging = staging_dir(
            self.inner.disk.as_ref().map(DiskStore::root),
            digest,
        );
        let mut config = SweepConfig::new(vec![req.experiment], req.platform.clone(), req.fidelity);
        config.out_dir = Some(staging.clone());
        let compute = &self.inner.compute;
        let outcome = run_sweep_with(&config, |e, p, f| compute(e, p, f));
        let result = match outcome {
            Err(e) => CachedResult {
                status: RunStatus::Failed,
                error: Some("sweep".to_string()),
                detail: Some(e.to_string()),
                integrity: Vec::new(),
                compute_ms: None,
                tree: Default::default(),
            },
            Ok(out) => {
                let entry = &out.manifest.entries[0];
                let tree = read_tree(&staging).unwrap_or_default();
                let integrity = match (entry.status, &entry.detail) {
                    (RunStatus::Degraded, Some(d)) => {
                        d.split("; ").map(str::to_string).collect()
                    }
                    _ => Vec::new(),
                };
                CachedResult {
                    status: entry.status,
                    error: entry.error.clone(),
                    detail: entry.detail.clone(),
                    integrity,
                    compute_ms: entry.elapsed_ms,
                    tree,
                }
            }
        };
        let _ = fs::remove_dir_all(&staging);
        result
    }

    /// Snapshot of the counters and gauges.
    pub fn stats(&self) -> StatsSnapshot {
        let (epoch, peers_live) = match self.inner.fleet.as_ref() {
            Some(fleet) => {
                let view = fleet.view();
                (view.epoch, view.peers.len())
            }
            None => (0, 0),
        };
        let gauges = {
            let st = lock(&self.inner.state);
            Gauges {
                in_flight: st.inflight.len(),
                queued: st.queued,
                backlog_ms: st.backlog_ms,
                entries: st.cache.len(),
                bytes: st.cache.bytes(),
                quarantined: self.inner.disk.as_ref().map_or(0, DiskStore::quarantined),
                swept_tmp: self.inner.disk.as_ref().map_or(0, DiskStore::swept_tmp),
                epoch,
                peers_live,
                draining: self.draining(),
            }
        };
        lock(&self.inner.stats).snapshot(gauges)
    }

    /// Drops every cached result from memory and disk so stale caches
    /// cannot mask code changes. Returns `(memory, disk)` entry counts.
    pub fn purge(&self) -> (usize, usize) {
        let mem = lock(&self.inner.state).cache.purge();
        let disk = match &self.inner.disk {
            Some(d) => d.purge().unwrap_or_else(|e| {
                eprintln!("roofd: disk purge failed: {e}");
                0
            }),
            None => 0,
        };
        (mem, disk)
    }
}

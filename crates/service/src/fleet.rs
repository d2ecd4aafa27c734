//! Horizontal cache sharing: N roofd nodes agree on one *owner* per
//! content-address digest and fetch from it before computing locally.
//!
//! Ownership is decided by **rendezvous (highest-random-weight)
//! hashing** — for a digest `d`, each peer `p` gets a score
//! `mix(seed, d, p)` and the highest score owns `d`. That gives, with no
//! shared state at all:
//!
//! * exactly one owner per digest on every node (ties broken by peer
//!   name, so even a score collision cannot split ownership);
//! * stability under peer-list *reordering* — scores never look at list
//!   positions;
//! * minimal disruption when a node leaves: only the digests the dead
//!   node owned move (≈ 1/N of the keyspace), everything else keeps its
//!   owner — the property the fleet proptests pin.
//!
//! Membership itself is **dynamic**: the boot-time peer list seeds a
//! [`MembershipView`] (an epoch-versioned live peer set behind a lock)
//! that every ownership decision reads. Two kinds of transitions move
//! it:
//!
//! * **health observations** — a [`HealthProber`] sends authenticated
//!   `ping`s to every member each probe interval; a member is suspected
//!   after [`FleetConfig::probe_failures`] *consecutive* failures,
//!   dropped from the live view (its ≈ 1/N share rendezvous-moves to
//!   the survivors), and re-admitted by the first successful ping. The
//!   request path feeds the same counters: a failed peer fetch counts
//!   as a failure observation, a served one as a success, so a dead
//!   owner is detected at traffic speed, not just probe speed.
//! * **administrative `join`/`leave`** — operator commands that edit the
//!   member list itself. They bump a membership *version* that the
//!   prober gossips: every authenticated pong carries the responder's
//!   version + member list, and a node adopts any list with a newer
//!   version, so a `join` issued to one node propagates fleet-wide
//!   within a probe round.
//!
//! Every live-set change bumps the view's `epoch` deterministically —
//! two nodes applying the same observation sequence converge on the
//! same `(epoch, peers)` view, the property the convergence proptests
//! pin.
//!
//! A node that is not the owner of a requested digest does a
//! **cache-peer fetch**: one `run` request to the owner carrying the
//! fleet secret as `fleet_token` — a `run` with a valid token is a peer
//! fetch, so the owner serves it locally even if its own peer list
//! disagrees (forwarding never chains) — through [`crate::client`] with
//! its retrying policy. When the owner is down, the fetch falls back to
//! the digest's **successor** (second-highest rendezvous score — exactly
//! the node that becomes owner once the death is observed), which holds
//! a pushed replica of every result the owner computed; only when both
//! fail does the node compute locally. Two properties keep the fetch
//! path honest:
//!
//! * **membership is proven, not claimed** — every node shares a fleet
//!   [`FleetConfig::secret`] and peer requests carry it as
//!   `fleet_token`. A `run` with a valid token
//!   ([`FleetConfig::accepts_token`]) is a peer fetch, exempt from quota
//!   charging; holding the secret already grants
//!   `join`/`leave`/`drain`/`replicate`, so the exemption adds no
//!   privilege. A client without the secret is charged to its session
//!   tenant like everyone else.
//! * **a fetch costs bounded time** — each attempt is clamped to
//!   [`FleetConfig::io_timeout`] *and* the requesting client's own
//!   wall-clock deadline, whichever is shorter, so a dead or wedged
//!   owner cannot pin this node's worker slot past the point where the
//!   request would have timed out anyway.

use crate::cache::CachedResult;
use crate::client::{run_with_retries, Client, ClientError, RetryPolicy, RunOpts};
use crate::engine::Request;
use crate::protocol::encode_result;
use crate::sync::lock;
use roofline_core::json::{Envelope, Json};
use std::collections::BTreeMap;
use std::sync::mpsc::{self, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Boot-time fleet topology + fetch/probe tuning, carried on
/// [`crate::engine::EngineConfig`]. The peer list only seeds the
/// [`MembershipView`]; after boot, membership moves via health
/// observations and `join`/`leave`.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// This node's own address as it appears in [`FleetConfig::peers`].
    pub self_addr: String,
    /// Every node of the fleet at boot, this node included. Order is
    /// irrelevant; duplicates are ignored.
    pub peers: Vec<String>,
    /// Shared hash seed; all nodes must agree or ownership splits.
    pub seed: u64,
    /// Shared fleet secret: peer fetches present it as `fleet_token`,
    /// and a `run` without the matching token is charged to the session
    /// tenant like any ordinary request. All nodes must agree; an empty
    /// secret disables the peer exemption entirely (fail closed —
    /// fetches still work, charged as anonymous).
    pub secret: String,
    /// Retry policy for peer fetches (attempts, seeded backoff).
    pub retry: RetryPolicy,
    /// Per-attempt connect/read/write bound for peer fetches and health
    /// probes — a dead owner must cost bounded time before the
    /// successor/local-compute fallback. Clamped further to the
    /// requesting client's own deadline at fetch time.
    pub io_timeout: Duration,
    /// How often the [`HealthProber`] pings every other member.
    pub probe_interval: Duration,
    /// Consecutive failure observations (probe or fetch) after which a
    /// member is suspected and dropped from the live view. The first
    /// success re-admits it.
    pub probe_failures: u32,
}

impl FleetConfig {
    /// A config with default fetch tuning: one attempt with a 5 s I/O
    /// bound, probes every second, and suspicion after 3 consecutive
    /// failures. A fetch holds a worker slot while it blocks, so the
    /// default leans toward the cheap fallback; raise `io_timeout` only
    /// when the owner's cold compute is genuinely worth waiting out.
    pub fn new(
        self_addr: impl Into<String>,
        peers: Vec<String>,
        seed: u64,
        secret: impl Into<String>,
    ) -> FleetConfig {
        FleetConfig {
            self_addr: self_addr.into(),
            peers,
            seed,
            secret: secret.into(),
            retry: RetryPolicy {
                attempts: 1,
                base_ms: 50,
                cap_ms: 1_000,
                seed,
            },
            io_timeout: Duration::from_secs(5),
            probe_interval: Duration::from_secs(1),
            probe_failures: 3,
        }
    }

    /// True when `presented` proves fleet membership: a non-empty
    /// shared secret compared in constant time (no early exit for a
    /// near-miss to measure).
    pub fn accepts_token(&self, presented: &str) -> bool {
        let (a, b) = (self.secret.as_bytes(), presented.as_bytes());
        if a.is_empty() || a.len() != b.len() {
            return false;
        }
        a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
    }
}

/// One 64-bit rendezvous score. FNV-1a over the canonical
/// `seed:digest:peer` string, finished with a splitmix64-style avalanche
/// so single-character peer-name differences decorrelate.
pub fn rendezvous_score(seed: u64, digest: &str, peer: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&seed.to_le_bytes());
    eat(digest.as_bytes());
    eat(&[0xff]); // domain separator: ("ab","c") ≠ ("a","bc")
    eat(peer.as_bytes());
    // splitmix64 finalizer.
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The owner of `digest` among `peers`: highest rendezvous score, ties
/// broken by peer name. `None` only for an empty peer list. Duplicate
/// entries cannot change the answer (same name, same score).
pub fn owner_of<'a>(peers: &'a [String], seed: u64, digest: &str) -> Option<&'a str> {
    peers
        .iter()
        .map(|p| (rendezvous_score(seed, digest, p), p.as_str()))
        .max()
        .map(|(_, p)| p)
}

/// The successor of `digest` among `peers`: second-highest rendezvous
/// score — exactly the node that becomes owner if the current owner
/// leaves, which is why the owner replicates its fresh computes there
/// and why a fetch falls back to it when the owner is down.
pub fn successor_of<'a>(peers: &'a [String], seed: u64, digest: &str) -> Option<&'a str> {
    let owner = owner_of(peers, seed, digest)?;
    peers
        .iter()
        .filter(|p| p.as_str() != owner)
        .map(|p| (rendezvous_score(seed, digest, p), p.as_str()))
        .max()
        .map(|(_, p)| p)
}

/// One frozen view of fleet membership: the live peer set and the epoch
/// that versions it. The epoch bumps on every live-set transition
/// (suspicion, re-admission, join, leave, gossip adoption), so two
/// views are comparable at a glance and two nodes applying the same
/// observations agree on both fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipView {
    /// Monotonic live-set transition counter, reported in `stats`.
    pub epoch: u64,
    /// The members currently considered alive, sorted by address.
    pub peers: Vec<String>,
}

/// The locked membership state behind [`Fleet`]. `members` is the
/// admin-managed list (versioned for gossip); `failures` holds each
/// member's consecutive-failure count; the live view derives from both.
#[derive(Debug)]
struct ViewState {
    /// Live-set transition counter — see [`MembershipView::epoch`].
    epoch: u64,
    /// Membership-edit counter, bumped only by `join`/`leave`; gossip
    /// adopts the member list with the higher version.
    version: u64,
    /// Every configured member (live or suspect), sorted.
    members: Vec<String>,
    /// Consecutive failure observations per member.
    failures: BTreeMap<String, u32>,
}

impl ViewState {
    fn live(&self, threshold: u32) -> Vec<String> {
        self.members
            .iter()
            .filter(|p| self.failures.get(*p).copied().unwrap_or(0) < threshold)
            .cloned()
            .collect()
    }
}

/// The runtime side of [`FleetConfig`]: the membership view, ownership
/// decisions, and peer fetches. Shared (`Arc`) between the engine's
/// request path and the [`HealthProber`].
#[derive(Debug)]
pub struct Fleet {
    cfg: FleetConfig,
    view: Mutex<ViewState>,
}

impl Fleet {
    /// Builds the fleet handle; the boot peer list (self included,
    /// deduplicated, sorted) seeds the membership view at epoch 0.
    pub fn new(cfg: FleetConfig) -> Fleet {
        let mut members: Vec<String> = cfg.peers.clone();
        if !members.contains(&cfg.self_addr) {
            members.push(cfg.self_addr.clone());
        }
        members.sort();
        members.dedup();
        Fleet {
            view: Mutex::new(ViewState {
                epoch: 0,
                version: 0,
                members,
                failures: BTreeMap::new(),
            }),
            cfg,
        }
    }

    /// The configuration this fleet was built from.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// The current live view: epoch + live peers, sorted.
    pub fn view(&self) -> MembershipView {
        let st = lock(&self.view);
        MembershipView {
            epoch: st.epoch,
            peers: st.live(self.cfg.probe_failures),
        }
    }

    /// The current live-set epoch.
    pub fn epoch(&self) -> u64 {
        lock(&self.view).epoch
    }

    /// The admin-managed member list and its gossip version — what a
    /// pong advertises so peers can adopt newer membership.
    pub fn members(&self) -> (u64, Vec<String>) {
        let st = lock(&self.view);
        (st.version, st.members.clone())
    }

    /// The members the prober must ping: everyone but this node,
    /// suspects included (suspicion is how they get back in).
    pub fn probe_targets(&self) -> Vec<String> {
        lock(&self.view)
            .members
            .iter()
            .filter(|p| **p != self.cfg.self_addr)
            .cloned()
            .collect()
    }

    /// Records one failure observation (failed probe or peer fetch)
    /// against `peer`. Crossing [`FleetConfig::probe_failures`]
    /// consecutive failures drops the peer from the live view and bumps
    /// the epoch. Observations about non-members and about this node
    /// itself are ignored. Returns true when the live view changed.
    pub fn mark_failure(&self, peer: &str) -> bool {
        if peer == self.cfg.self_addr {
            return false;
        }
        let mut st = lock(&self.view);
        if !st.members.iter().any(|p| p == peer) {
            return false;
        }
        let count = st.failures.entry(peer.to_string()).or_insert(0);
        *count = count.saturating_add(1);
        if *count == self.cfg.probe_failures {
            st.epoch += 1;
            return true;
        }
        false
    }

    /// Records one success observation (pong or served fetch) for
    /// `peer`, resetting its failure count. A suspect peer is
    /// re-admitted to the live view, bumping the epoch. Returns true
    /// when the live view changed.
    pub fn mark_success(&self, peer: &str) -> bool {
        let mut st = lock(&self.view);
        if !st.members.iter().any(|p| p == peer) {
            return false;
        }
        let was_suspect = st.failures.get(peer).copied().unwrap_or(0) >= self.cfg.probe_failures;
        st.failures.remove(peer);
        if was_suspect {
            st.epoch += 1;
        }
        was_suspect
    }

    /// Admits `peer` to the member list (admin `join`), bumping the
    /// membership version and the epoch. Idempotent: re-joining an
    /// existing member changes nothing and returns false.
    pub fn join(&self, peer: &str) -> bool {
        let mut st = lock(&self.view);
        if st.members.iter().any(|p| p == peer) {
            return false;
        }
        st.members.push(peer.to_string());
        st.members.sort();
        st.version += 1;
        st.epoch += 1;
        true
    }

    /// Removes `peer` from the member list (admin `leave`), bumping the
    /// membership version — and the epoch when the peer was live.
    /// Returns false when `peer` was not a member.
    pub fn leave(&self, peer: &str) -> bool {
        let mut st = lock(&self.view);
        let before = st.members.len();
        let was_live = st.failures.get(peer).copied().unwrap_or(0) < self.cfg.probe_failures;
        st.members.retain(|p| p != peer);
        if st.members.len() == before {
            return false;
        }
        st.failures.remove(peer);
        st.version += 1;
        if was_live {
            st.epoch += 1;
        }
        true
    }

    /// Adopts a gossiped member list when its `version` is newer than
    /// this node's. Failure counts carry over for retained members, so
    /// adopting a list cannot resurrect a suspect. Returns true when
    /// the list was adopted.
    pub fn adopt(&self, version: u64, members: &[String]) -> bool {
        let mut st = lock(&self.view);
        if version <= st.version || members.is_empty() {
            return false;
        }
        let mut adopted: Vec<String> = members.to_vec();
        adopted.sort();
        adopted.dedup();
        let live_before = st.live(self.cfg.probe_failures);
        st.failures.retain(|p, _| adopted.contains(p));
        st.members = adopted;
        st.version = version;
        if st.live(self.cfg.probe_failures) != live_before {
            st.epoch += 1;
        }
        true
    }

    /// The owner of `digest` in the current live view.
    pub fn owner(&self, digest: &str) -> Option<String> {
        let live = self.view().peers;
        owner_of(&live, self.cfg.seed, digest).map(str::to_string)
    }

    /// The owner of `digest` when it is *another* node — `None` means
    /// this node owns the digest (or the live view is empty) and must
    /// compute locally.
    pub fn remote_owner(&self, digest: &str) -> Option<String> {
        self.owner(digest).filter(|o| *o != self.cfg.self_addr)
    }

    /// True when this node owns `digest` in the current live view — the
    /// gate on pushing a fresh compute to the successor.
    pub fn is_owner(&self, digest: &str) -> bool {
        self.owner(digest).as_deref() == Some(self.cfg.self_addr.as_str())
    }

    /// The successor of `digest` in the current live view: the
    /// replication target (when this node owns the digest) and the fetch
    /// fallback (when the owner is down).
    pub fn successor(&self, digest: &str) -> Option<String> {
        let live = self.view().peers;
        successor_of(&live, self.cfg.seed, digest).map(str::to_string)
    }

    /// The owner of `digest` if `excluded` were gone from the live
    /// view: the node that inherits the digest once the exclusion is
    /// observed fleet-wide — identical to [`Fleet::successor`] while
    /// `excluded` is the live owner, and to the plain owner once the
    /// view has already dropped it, so the fetch fallback targets the
    /// same node in both states.
    pub fn owner_excluding(&self, digest: &str, excluded: &str) -> Option<String> {
        let live: Vec<String> = self
            .view()
            .peers
            .into_iter()
            .filter(|p| p != excluded)
            .collect();
        owner_of(&live, self.cfg.seed, digest).map(str::to_string)
    }

    /// Fetches the result for `req` from `from` (the owner, or its
    /// successor on fallback), spending at most the time until
    /// `deadline`. The request carries the shared fleet secret as
    /// `fleet_token`, so the remote serves it as a peer fetch (no
    /// forwarding chains, no quota charge) — see the module docs.
    ///
    /// # Errors
    ///
    /// Whatever the last fetch attempt failed with; the caller falls
    /// back to the successor or local compute.
    pub fn fetch(
        &self,
        from: &str,
        req: &Request,
        deadline: Instant,
    ) -> Result<CachedResult, ClientError> {
        let opts = RunOpts {
            fleet_token: Some(self.cfg.secret.clone()),
            ..RunOpts::new(req.experiment, &req.platform, req.fidelity)
        };
        let reply = run_with_retries(
            from,
            &opts,
            &self.cfg.retry,
            Some(self.cfg.io_timeout),
            Some(deadline),
        )?;
        Ok(reply.into_result())
    }

    /// Pushes a freshly computed result to `to` (the digest's
    /// successor) via the authenticated `replicate` command, bounded by
    /// [`FleetConfig::io_timeout`].
    ///
    /// # Errors
    ///
    /// Connection or protocol failure; replication is best-effort and
    /// the caller only counts the outcome.
    pub fn replicate(
        &self,
        to: &str,
        req: &Request,
        result: &CachedResult,
    ) -> Result<(), ClientError> {
        let mut client = Client::connect_with(to, Some(self.cfg.io_timeout))?;
        let env = Envelope::new("replicate")
            .field("fleet_token", Json::str(&self.cfg.secret))
            .field("experiment", Json::str(req.experiment.id()))
            .field("platform", Json::str(&req.platform))
            .field("fidelity", Json::str(req.fidelity.label()));
        client
            .request(encode_result(env, result), "replicated")
            .map(|_| ())
    }
}

/// The health prober: a background thread that pings every other member
/// each [`FleetConfig::probe_interval`] with an authenticated `ping`
/// (fleet token + this node's epoch and address), feeding the
/// [`Fleet`]'s failure/success counters and adopting gossiped
/// membership from the pongs. Dropping the prober stops the thread.
#[derive(Debug)]
pub struct HealthProber {
    /// Never sent on; dropping it disconnects the channel, which is the
    /// thread's stop signal.
    stop: Option<Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl HealthProber {
    /// Spawns the prober over `fleet`. A standalone view (no members
    /// beyond this node at spawn time) still probes — `join` can add
    /// members later.
    pub fn spawn(fleet: Arc<Fleet>) -> HealthProber {
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || loop {
            for peer in fleet.probe_targets() {
                if let Err(TryRecvError::Disconnected) = stopped.try_recv() {
                    return;
                }
                match Self::probe_one(&fleet, &peer) {
                    Ok((version, members)) => {
                        fleet.mark_success(&peer);
                        fleet.adopt(version, &members);
                    }
                    Err(_) => {
                        fleet.mark_failure(&peer);
                    }
                }
            }
            if let Err(RecvTimeoutError::Disconnected) =
                stopped.recv_timeout(fleet.config().probe_interval)
            {
                return;
            }
        });
        HealthProber {
            stop: Some(stop),
            thread: Some(thread),
        }
    }

    fn probe_one(fleet: &Fleet, peer: &str) -> Result<(u64, Vec<String>), ClientError> {
        let cfg = fleet.config();
        let mut client = Client::connect_with(peer, Some(cfg.io_timeout))?;
        // The ping carries this node's membership so gossip flows both
        // ways: the responder adopts a newer list from the request, the
        // prober adopts a newer one from the pong. A freshly joined node
        // learns the fleet from the first probe that reaches it.
        let (version, members) = fleet.members();
        let pong = client.fleet_ping(&cfg.secret, fleet.epoch(), &cfg.self_addr, version, &members)?;
        Ok((pong.version, pong.members))
    }
}

impl Drop for HealthProber {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peers(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn every_node_agrees_on_one_owner() {
        let list = peers(&["10.0.0.1:47130", "10.0.0.2:47130", "10.0.0.3:47130"]);
        for digest in ["00ff", "cafebabe", "0123456789abcdef"] {
            let owner = owner_of(&list, 7, digest).expect("owner");
            // Reordering the list cannot change the answer.
            let mut rev = list.clone();
            rev.reverse();
            assert_eq!(owner_of(&rev, 7, digest), Some(owner), "{digest}");
        }
    }

    #[test]
    fn seed_changes_reshuffle_ownership() {
        let list = peers(&["a", "b", "c", "d", "e", "f", "g", "h"]);
        let digests: Vec<String> = (0..256).map(|i| format!("{i:016x}")).collect();
        let moved = digests
            .iter()
            .filter(|d| owner_of(&list, 1, d) != owner_of(&list, 2, d))
            .count();
        assert!(moved > 0, "two seeds must not agree on every digest");
    }

    #[test]
    fn ownership_spreads_across_peers() {
        let list = peers(&["node-a", "node-b", "node-c"]);
        let mut counts = [0usize; 3];
        for i in 0..300 {
            let owner = owner_of(&list, 42, &format!("{i:016x}")).unwrap();
            counts[list.iter().position(|p| p == owner).unwrap()] += 1;
        }
        for (peer, &n) in list.iter().zip(&counts) {
            assert!(
                n > 50,
                "peer {peer} owns {n}/300 — rendezvous spread collapsed: {counts:?}"
            );
        }
    }

    #[test]
    fn successor_is_the_owner_after_the_owner_leaves() {
        // The property replication banks on: the fallback target is
        // exactly the node that inherits the digest once the owner's
        // death is observed.
        let list = peers(&["node-a", "node-b", "node-c", "node-d"]);
        for i in 0..128 {
            let digest = format!("{i:016x}");
            let owner = owner_of(&list, 9, &digest).unwrap().to_string();
            let successor = successor_of(&list, 9, &digest).unwrap().to_string();
            assert_ne!(owner, successor);
            let without_owner: Vec<String> =
                list.iter().filter(|p| **p != owner).cloned().collect();
            assert_eq!(
                owner_of(&without_owner, 9, &digest),
                Some(successor.as_str()),
                "{digest}"
            );
        }
    }

    #[test]
    fn remote_owner_excludes_self() {
        let cfg = FleetConfig::new("b", peers(&["a", "b", "c"]), 9, "s3cret");
        let fleet = Fleet::new(cfg);
        for i in 0..64 {
            let digest = format!("{i:016x}");
            match fleet.remote_owner(&digest) {
                Some(owner) => assert_ne!(owner, "b"),
                None => assert_eq!(fleet.owner(&digest).as_deref(), Some("b")),
            }
        }
    }

    #[test]
    fn single_node_fleet_always_computes_locally() {
        let fleet = Fleet::new(FleetConfig::new("only", peers(&["only"]), 3, "s3cret"));
        assert_eq!(fleet.remote_owner("deadbeef"), None);
        assert_eq!(fleet.successor("deadbeef"), None);
    }

    #[test]
    fn membership_requires_the_exact_nonempty_secret() {
        let cfg = FleetConfig::new("a", peers(&["a", "b"]), 1, "s3cret");
        assert!(cfg.accepts_token("s3cret"));
        assert!(!cfg.accepts_token("s3creT"));
        assert!(!cfg.accepts_token("s3cret "));
        assert!(!cfg.accepts_token(""));
        // An empty secret fails closed: nothing proves membership, so
        // no client can talk its way into the quota exemption.
        let open = FleetConfig::new("a", peers(&["a", "b"]), 1, "");
        assert!(!open.accepts_token(""));
        assert!(!open.accepts_token("anything"));
    }

    #[test]
    fn consecutive_failures_suspect_then_one_success_readmits() {
        let fleet = Fleet::new(FleetConfig::new("a", peers(&["a", "b", "c"]), 1, "s"));
        assert_eq!(fleet.view().epoch, 0);
        // Two failures: still live (threshold is 3).
        assert!(!fleet.mark_failure("b"));
        assert!(!fleet.mark_failure("b"));
        assert_eq!(fleet.view().peers, peers(&["a", "b", "c"]));
        // A success in between resets the count: the threshold counts
        // *consecutive* failures only.
        assert!(!fleet.mark_success("b"));
        assert!(!fleet.mark_failure("b"));
        assert!(!fleet.mark_failure("b"));
        assert!(fleet.mark_failure("b"), "third consecutive failure suspects");
        let view = fleet.view();
        assert_eq!(view.peers, peers(&["a", "c"]), "b suspected after 3");
        assert_eq!(view.epoch, 1);
        // Further failures don't bump the epoch again.
        assert!(!fleet.mark_failure("b"));
        assert_eq!(fleet.view().epoch, 1);
        // One success re-admits.
        assert!(fleet.mark_success("b"));
        let view = fleet.view();
        assert_eq!(view.peers, peers(&["a", "b", "c"]));
        assert_eq!(view.epoch, 2);
    }

    #[test]
    fn self_is_never_suspected() {
        let fleet = Fleet::new(FleetConfig::new("a", peers(&["a", "b"]), 1, "s"));
        for _ in 0..10 {
            fleet.mark_failure("a");
        }
        assert!(fleet.view().peers.contains(&"a".to_string()));
        assert_eq!(fleet.view().epoch, 0);
    }

    #[test]
    fn join_and_leave_edit_members_and_bump_version_and_epoch() {
        let fleet = Fleet::new(FleetConfig::new("a", peers(&["a", "b"]), 1, "s"));
        assert!(fleet.join("c"));
        assert!(!fleet.join("c"), "join is idempotent");
        let (version, members) = fleet.members();
        assert_eq!(version, 1);
        assert_eq!(members, peers(&["a", "b", "c"]));
        assert_eq!(fleet.view().epoch, 1);
        assert!(fleet.leave("b"));
        assert!(!fleet.leave("b"), "leaving twice is a no-op");
        let (version, members) = fleet.members();
        assert_eq!(version, 2);
        assert_eq!(members, peers(&["a", "c"]));
        assert_eq!(fleet.view().epoch, 2);
    }

    #[test]
    fn leaving_a_suspect_bumps_version_but_not_epoch() {
        let fleet = Fleet::new(FleetConfig::new("a", peers(&["a", "b"]), 1, "s"));
        for _ in 0..3 {
            fleet.mark_failure("b");
        }
        let epoch = fleet.view().epoch;
        assert!(fleet.leave("b"));
        assert_eq!(
            fleet.view().epoch,
            epoch,
            "removing an already-dead member does not move the live set"
        );
        assert_eq!(fleet.members().1, peers(&["a"]));
    }

    #[test]
    fn adopt_takes_newer_versions_only_and_keeps_failure_counts() {
        let fleet = Fleet::new(FleetConfig::new("a", peers(&["a", "b"]), 1, "s"));
        for _ in 0..3 {
            fleet.mark_failure("b");
        }
        // A stale or equal version is refused.
        assert!(!fleet.adopt(0, &peers(&["a", "b", "c"])));
        // A newer version is adopted; the suspect stays suspect.
        assert!(fleet.adopt(5, &peers(&["a", "b", "c"])));
        let (version, members) = fleet.members();
        assert_eq!(version, 5);
        assert_eq!(members, peers(&["a", "b", "c"]));
        assert_eq!(fleet.view().peers, peers(&["a", "c"]), "b is still suspect");
        // Replays of the same version are refused.
        assert!(!fleet.adopt(5, &peers(&["a"])));
    }

    #[test]
    fn suspects_drop_out_of_ownership_and_successor_inherits() {
        let addrs = peers(&["n1", "n2", "n3"]);
        let fleet = Fleet::new(FleetConfig::new("n1", addrs.clone(), 42, "s"));
        // Find a digest owned by a remote node.
        let (digest, owner) = (0..256)
            .map(|i| format!("{i:016x}"))
            .find_map(|d| {
                let o = fleet.owner(&d)?;
                (o != "n1").then_some((d, o))
            })
            .expect("some digest is remotely owned");
        let successor = fleet.successor(&digest).expect("successor");
        for _ in 0..fleet.config().probe_failures {
            fleet.mark_failure(&owner);
        }
        assert_eq!(
            fleet.owner(&digest),
            Some(successor.clone()),
            "the successor inherits the suspect's digests"
        );
    }

    #[test]
    fn dropping_the_prober_does_not_wait_out_the_probe_interval() {
        let mut cfg = FleetConfig::new("only", peers(&["only"]), 3, "s");
        cfg.probe_interval = Duration::from_secs(60);
        let prober = HealthProber::spawn(Arc::new(Fleet::new(cfg)));
        // Let the thread reach its interval wait before stopping it.
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        drop(prober);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "drop took {:?}",
            start.elapsed()
        );
    }
}

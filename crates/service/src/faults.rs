//! Deterministic fault injection for the service layer — the
//! network-and-disk sibling of `simx86::fault`.
//!
//! The measurement layer already injects counter wrap, TSC drift, and
//! phantom prefetch so its integrity guards can be tested end to end.
//! A long-running analysis daemon fails in a different set of
//! well-documented ways: a cache write is torn by a crash or full disk,
//! stored bytes rot, a peer disconnects mid-request, a computation
//! wedges, and a client stalls without ever sending a newline. This
//! module makes each of those failure modes *injectable on demand*, so
//! the resilience machinery (checksummed cache entries with quarantine,
//! request deadlines, connection timeouts, client retries) can be proven
//! against real faults instead of hoped about.
//!
//! As in `simx86`, all randomness comes from a seeded xorshift64*
//! generator: the same seed and request sequence reproduces the same
//! faults bit for bit, which is what lets the chaos tests assert exact
//! outcomes. The default configuration is disabled and injects nothing;
//! an *enabled* configuration with every knob at zero runs the injection
//! plumbing but perturbs nothing, and the zero-fault byte-identity tests
//! pin that.

use std::sync::Mutex;
use std::time::Duration;

/// Environment variable the chaos CI job uses to arm a fault class
/// without changing the command line (`ROOFD_CHAOS=torn-write`).
pub const CHAOS_ENV: &str = "ROOFD_CHAOS";

/// Configuration of the service fault injector, carried on
/// [`EngineConfig`](crate::engine::EngineConfig).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceFaults {
    /// Master switch; when false no fault fires and the lottery never
    /// advances its RNG.
    pub enabled: bool,
    /// RNG seed for per-event fault decisions.
    pub seed: u64,
    /// Probability (0..=1) that a disk-cache store writes a *torn* entry:
    /// one artifact file truncated to half its bytes after the checksum
    /// manifest was recorded — what a crash or full disk mid-write leaves
    /// behind.
    pub torn_write_rate: f64,
    /// Probability (0..=1) that one stored byte is flipped after the
    /// checksum manifest was recorded — at-rest bit rot.
    pub flip_rate: f64,
    /// Probability (0..=1) that the server drops a connection after
    /// reading a request but before writing the response — a mid-request
    /// disconnect as seen by the client.
    pub disconnect_rate: f64,
    /// Added latency injected into every computation, in milliseconds —
    /// a wedged engine, for driving the deadline machinery.
    pub delay_compute_ms: u64,
    /// Number of byte-dribbling connections the chaos *harness* (not the
    /// server) arms against the server — stalled readers that hold a
    /// socket without ever completing a line. The server itself ignores
    /// this knob; chaos tests read it.
    pub stalled_peers: u32,
}

impl Default for ServiceFaults {
    fn default() -> Self {
        ServiceFaults {
            enabled: false,
            seed: 0x5eed,
            torn_write_rate: 0.0,
            flip_rate: 0.0,
            disconnect_rate: 0.0,
            delay_compute_ms: 0,
            stalled_peers: 0,
        }
    }
}

impl ServiceFaults {
    /// An enabled configuration with every knob at zero: the injection
    /// path runs but nothing is perturbed. The zero-fault byte-identity
    /// test arms this to prove the plumbing itself is inert.
    pub fn enabled_noop() -> Self {
        ServiceFaults {
            enabled: true,
            ..ServiceFaults::default()
        }
    }

    /// Parses a fault-spec string of comma-separated `key=value` pairs:
    /// `seed=<u64>`, `torn=<rate>`, `flip=<rate>`, `disconnect=<rate>`,
    /// `delay=<ms>`, `peers=<n>`. The result is always `enabled`, so `""`
    /// yields [`ServiceFaults::enabled_noop`]. A bare fault-class name
    /// (see [`ServiceFaults::class`]) is also accepted.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the bad pair.
    pub fn parse(spec: &str) -> Result<ServiceFaults, String> {
        if let Ok(cfg) = ServiceFaults::class(spec.trim()) {
            return Ok(cfg);
        }
        let mut cfg = ServiceFaults::enabled_noop();
        for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{pair}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |e: &dyn std::fmt::Display| format!("fault `{key}={value}`: {e}");
            match key {
                "seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
                "torn" => cfg.torn_write_rate = value.parse().map_err(|e| bad(&e))?,
                "flip" => cfg.flip_rate = value.parse().map_err(|e| bad(&e))?,
                "disconnect" => cfg.disconnect_rate = value.parse().map_err(|e| bad(&e))?,
                "delay" => cfg.delay_compute_ms = value.parse().map_err(|e| bad(&e))?,
                "peers" => cfg.stalled_peers = value.parse().map_err(|e| bad(&e))?,
                other => {
                    return Err(format!(
                        "unknown fault knob `{other}` (expected seed, torn, flip, \
                         disconnect, delay, or peers)"
                    ))
                }
            }
        }
        cfg.validated()
    }

    /// A canonical configuration for one named fault class — what the CI
    /// chaos job arms, one class per run: `torn-write`, `checksum-flip`,
    /// `disconnect`, `wedged-engine`, or `stalled-reader`.
    ///
    /// # Errors
    ///
    /// Returns the list of known classes when `name` is not one of them.
    pub fn class(name: &str) -> Result<ServiceFaults, String> {
        let mut cfg = ServiceFaults::enabled_noop();
        match name {
            "torn-write" => cfg.torn_write_rate = 1.0,
            "checksum-flip" => cfg.flip_rate = 1.0,
            "disconnect" => cfg.disconnect_rate = 0.6,
            "wedged-engine" => cfg.delay_compute_ms = 1_500,
            "stalled-reader" => cfg.stalled_peers = 4,
            other => {
                return Err(format!(
                    "unknown fault class `{other}` (expected torn-write, checksum-flip, \
                     disconnect, wedged-engine, or stalled-reader)"
                ))
            }
        }
        Ok(cfg)
    }

    /// Reads the [`CHAOS_ENV`] variable: `None` when unset or empty,
    /// otherwise the parsed class name or `key=value` spec.
    ///
    /// # Errors
    ///
    /// Propagates the parse failure so a typo in CI is loud, not silently
    /// chaos-free.
    pub fn from_env() -> Result<Option<ServiceFaults>, String> {
        match std::env::var(CHAOS_ENV) {
            Ok(spec) if !spec.trim().is_empty() => ServiceFaults::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }

    /// Sanity-checks rates, consuming self so `parse` can chain it.
    fn validated(self) -> Result<ServiceFaults, String> {
        for (name, v) in [
            ("torn", self.torn_write_rate),
            ("flip", self.flip_rate),
            ("disconnect", self.disconnect_rate),
        ] {
            if !(v.is_finite() && (0.0..=1.0).contains(&v)) {
                return Err(format!("fault rate `{name}` must be in 0..=1, got {v}"));
            }
        }
        Ok(self)
    }

    /// Builds the runtime lottery that makes per-event fault decisions
    /// from this configuration.
    pub fn lottery(&self) -> FaultLottery {
        FaultLottery {
            cfg: self.clone(),
            state: Mutex::new(self.seed | 1),
        }
    }
}

/// The runtime side of [`ServiceFaults`]: a seeded xorshift64* stream
/// consulted at each injection point. Shared behind an `Arc` by the
/// engine, the disk store, and the server so one deterministic decision
/// sequence drives the whole process.
#[derive(Debug)]
pub struct FaultLottery {
    cfg: ServiceFaults,
    state: Mutex<u64>,
}

impl FaultLottery {
    /// Next raw draw; the mutex is poison-recovering so a panicked
    /// holder cannot wedge fault decisions (`crate::sync::lock`).
    fn next_u64(&self) -> u64 {
        let mut state = crate::sync::lock(&self.state);
        let mut x = *state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in [0, 1).
    fn next_f64(&self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw at `rate`; never advances the RNG when disabled or
    /// at rate zero, so an inert lottery is bit-transparent.
    fn fires(&self, rate: f64) -> bool {
        self.cfg.enabled && rate > 0.0 && self.next_f64() < rate
    }

    /// Should this disk store tear the entry it just wrote?
    pub fn torn_write(&self) -> bool {
        self.fires(self.cfg.torn_write_rate)
    }

    /// Should this disk store flip a stored byte?
    pub fn flip_byte(&self) -> bool {
        self.fires(self.cfg.flip_rate)
    }

    /// Should the server drop this connection before replying?
    pub fn disconnect(&self) -> bool {
        self.fires(self.cfg.disconnect_rate)
    }

    /// A deterministic byte offset into a buffer of `len` bytes for the
    /// flip fault.
    pub fn flip_offset(&self, len: usize) -> usize {
        if len == 0 {
            0
        } else {
            (self.next_u64() % len as u64) as usize
        }
    }

    /// Injects the wedged-engine delay (no-op when disabled or zero).
    pub fn delay_compute(&self) {
        if self.cfg.enabled && self.cfg.delay_compute_ms > 0 {
            std::thread::sleep(Duration::from_millis(self.cfg.delay_compute_ms));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled_and_inert() {
        let lottery = ServiceFaults::default().lottery();
        for _ in 0..64 {
            assert!(!lottery.torn_write());
            assert!(!lottery.flip_byte());
            assert!(!lottery.disconnect());
        }
    }

    #[test]
    fn enabled_noop_is_also_inert() {
        let lottery = ServiceFaults::enabled_noop().lottery();
        for _ in 0..64 {
            assert!(!lottery.torn_write() && !lottery.flip_byte() && !lottery.disconnect());
        }
    }

    #[test]
    fn parse_round_trips_every_knob() {
        let cfg =
            ServiceFaults::parse("torn=1,flip=0.5,disconnect=0.25,delay=300,peers=2,seed=9")
                .unwrap();
        assert!(cfg.enabled);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.torn_write_rate, 1.0);
        assert_eq!(cfg.flip_rate, 0.5);
        assert_eq!(cfg.disconnect_rate, 0.25);
        assert_eq!(cfg.delay_compute_ms, 300);
        assert_eq!(cfg.stalled_peers, 2);
    }

    #[test]
    fn parse_accepts_class_names_and_rejects_garbage() {
        assert_eq!(
            ServiceFaults::parse("torn-write").unwrap().torn_write_rate,
            1.0
        );
        assert!(ServiceFaults::parse("torn=2.0").is_err(), "rate above 1");
        assert!(ServiceFaults::parse("bogus=1").is_err());
        assert!(ServiceFaults::parse("torn").is_err(), "not key=value");
        assert!(ServiceFaults::class("slowloris").is_err());
    }

    #[test]
    fn same_seed_same_decision_sequence() {
        let spec = "disconnect=0.5,seed=42";
        let a = ServiceFaults::parse(spec).unwrap().lottery();
        let b = ServiceFaults::parse(spec).unwrap().lottery();
        let seq_a: Vec<bool> = (0..128).map(|_| a.disconnect()).collect();
        let seq_b: Vec<bool> = (0..128).map(|_| b.disconnect()).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(|&f| f) && seq_a.iter().any(|&f| !f));
    }

    #[test]
    fn rates_actually_fire_at_one() {
        let lottery = ServiceFaults::parse("torn=1,flip=1,disconnect=1").unwrap().lottery();
        assert!(lottery.torn_write());
        assert!(lottery.flip_byte());
        assert!(lottery.disconnect());
    }
}

//! Client identity and fair-share quotas for a multi-tenant roofd.
//!
//! Identity is token-based and deliberately boring: a static token file
//! (`roofd --tokens <path>`) maps each bearer token to a *tenant* name
//! and a fair-share *weight*. A connection proves its identity once with
//! the `auth` protocol command and every subsequent request on that
//! connection is accounted to its tenant; connections that never
//! authenticate run as the [`ANON_TENANT`] tenant, which gets a narrow
//! share so an anonymous mob cannot starve paying tenants.
//!
//! Fairness is enforced by two mechanisms layered *under* the engine's
//! existing global backpressure (queue depth + summed wall-budget
//! backlog):
//!
//! * a **weighted token bucket** per tenant — requests drain one token
//!   each, the bucket refills at `rate_per_s × weight` and holds at most
//!   `burst × weight` tokens, so a tenant's admission rate degrades
//!   gracefully to its weighted share under sustained overload;
//! * a **per-tenant outstanding-wall-budget cap** — the summed registry
//!   wall budgets of a tenant's admitted-but-unfinished computations may
//!   not exceed its weighted slice of the engine's global backlog cap,
//!   so one tenant's flood of heavy experiments cannot occupy the whole
//!   backlog even when its request *rate* is modest.
//!
//! Both rejections are answered with a retryable `quota` error envelope
//! carrying a `retry_after_ms` hint; the client's [`crate::client::
//! RetryPolicy`] classifies them like `busy` and backs off.
//!
//! The token file format is line-oriented:
//!
//! ```text
//! # token    tenant     weight (optional, default 1)
//! s3cretA    team-blas  3
//! s3cretB    team-fft   1
//! ```

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::path::Path;
use std::time::Instant;

/// The tenant every unauthenticated connection runs as.
pub const ANON_TENANT: &str = "anon";

/// The tenant a `run` with a valid fleet token — a fleet-internal peer
/// fetch — is submitted as; the engine keys the quota exemption and the
/// no-forward rule on this name. Peer traffic is exempt from quota
/// charging (the ingress node already charged the originating tenant),
/// so folding it into [`ANON_TENANT`] would inflate the anonymous
/// tenant's served counter and muddy the per-tenant fairness
/// observables; it gets its own ledger line instead.
pub const FLEET_TENANT: &str = "fleet";

/// Default fair-share weight of the anonymous tenant — a narrow share,
/// a quarter of a standard (weight-1) tenant.
pub const DEFAULT_ANON_WEIGHT: f64 = 0.25;

/// One named tenant with its fair-share weight.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    /// Tenant name (what stats and quota envelopes report).
    pub name: String,
    /// Fair-share weight; all quota dimensions scale linearly with it.
    pub weight: f64,
}

/// Rate-limit tuning, per unit of tenant weight.
#[derive(Debug, Clone, PartialEq)]
pub struct QuotaConfig {
    /// Token-bucket refill rate for a weight-1 tenant, in requests/s.
    pub rate_per_s: f64,
    /// Token-bucket capacity for a weight-1 tenant (burst allowance).
    pub burst: f64,
}

impl Default for QuotaConfig {
    fn default() -> Self {
        QuotaConfig {
            rate_per_s: 50.0,
            burst: 100.0,
        }
    }
}

/// Static identity + quota configuration carried on
/// [`crate::engine::EngineConfig`].
///
/// The default is fully open: no tokens, no quotas — exactly the
/// pre-fleet behaviour, so a roofd without `--tokens` is unchanged.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuthConfig {
    /// token → tenant. Multiple tokens may map to one tenant name; they
    /// share that tenant's buckets and counters.
    tokens: HashMap<String, Tenant>,
    /// Weight of the anonymous tenant when quotas are enforced.
    pub anon_weight: f64,
    /// Rate-limit knobs; `None` disables all quota enforcement (every
    /// tenant is admitted subject only to the global backpressure).
    pub quota: Option<QuotaConfig>,
}

/// A token-file line that did not parse.
#[derive(Debug)]
pub struct AuthParseError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for AuthParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "token file line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for AuthParseError {}

impl AuthConfig {
    /// Parses the token-file text: `token tenant [weight]` per line,
    /// `#` comments and blank lines ignored. Enables quota enforcement
    /// with default knobs and the default narrow anonymous share.
    ///
    /// # Errors
    ///
    /// The first malformed line (missing tenant, bad weight, duplicate
    /// token).
    pub fn parse(text: &str) -> Result<AuthConfig, AuthParseError> {
        let mut tokens = HashMap::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |reason: String| AuthParseError {
                line: idx + 1,
                reason,
            };
            let mut parts = line.split_whitespace();
            let token = parts.next().expect("non-empty line has a first field");
            let name = parts
                .next()
                .ok_or_else(|| err(format!("token `{token}` lacks a tenant name")))?;
            let weight = match parts.next() {
                None => 1.0,
                Some(w) => w
                    .parse::<f64>()
                    .ok()
                    .filter(|w| w.is_finite() && *w > 0.0)
                    .ok_or_else(|| err(format!("weight `{w}` is not a positive number")))?,
            };
            if let Some(extra) = parts.next() {
                return Err(err(format!("unexpected trailing field `{extra}`")));
            }
            if name == ANON_TENANT || name == FLEET_TENANT {
                return Err(err(format!(
                    "tenant name `{name}` is reserved ({ANON_TENANT}: unauthenticated \
                     connections, {FLEET_TENANT}: fleet-internal peer fetches)"
                )));
            }
            if tokens
                .insert(
                    token.to_string(),
                    Tenant {
                        name: name.to_string(),
                        weight,
                    },
                )
                .is_some()
            {
                return Err(err(format!("duplicate token `{token}`")));
            }
        }
        Ok(AuthConfig {
            tokens,
            anon_weight: DEFAULT_ANON_WEIGHT,
            quota: Some(QuotaConfig::default()),
        })
    }

    /// Reads and parses a token file.
    ///
    /// # Errors
    ///
    /// The read failure or the first malformed line, as text.
    pub fn from_file(path: &Path) -> Result<AuthConfig, String> {
        let text = fs::read_to_string(path)
            .map_err(|e| format!("could not read token file {}: {e}", path.display()))?;
        AuthConfig::parse(&text).map_err(|e| e.to_string())
    }

    /// Builds an open config (no tokens) that still enforces quotas —
    /// the test hook for exercising the anonymous share in isolation.
    pub fn open_with_quota(quota: QuotaConfig, anon_weight: f64) -> AuthConfig {
        AuthConfig {
            tokens: HashMap::new(),
            anon_weight,
            quota: Some(quota),
        }
    }

    /// Adds one token → tenant binding (test/bench hook; the production
    /// path is [`AuthConfig::parse`]).
    ///
    /// # Panics
    ///
    /// On a non-positive or non-finite weight or a reserved tenant name
    /// ([`ANON_TENANT`], [`FLEET_TENANT`]) — the same inputs
    /// [`AuthConfig::parse`] rejects, enforced here too so the test hook
    /// cannot smuggle in a tenant whose token bucket never refills, or
    /// one that rides the fleet's quota exemption.
    pub fn with_token(mut self, token: &str, tenant: &str, weight: f64) -> AuthConfig {
        assert!(
            weight.is_finite() && weight > 0.0,
            "tenant `{tenant}` needs a positive weight, got {weight}"
        );
        assert!(
            tenant != ANON_TENANT && tenant != FLEET_TENANT,
            "tenant name `{tenant}` is reserved"
        );
        self.tokens.insert(
            token.to_string(),
            Tenant {
                name: tenant.to_string(),
                weight,
            },
        );
        self
    }

    /// Resolves a bearer token to its tenant, or `None` for an unknown
    /// token (the caller stays anonymous).
    pub fn authenticate(&self, token: &str) -> Option<&Tenant> {
        self.tokens.get(token)
    }

    /// The fair-share weight of a tenant name ([`ANON_TENANT`] and
    /// unknown names get the anonymous weight).
    pub fn weight_of(&self, tenant: &str) -> f64 {
        self.tokens
            .values()
            .find(|t| t.name == tenant)
            .map(|t| t.weight)
            .unwrap_or(self.anon_weight.max(f64::MIN_POSITIVE))
    }

    /// Summed weight of every distinct tenant plus the anonymous share —
    /// the denominator of each tenant's backlog slice.
    pub fn total_weight(&self) -> f64 {
        let mut seen: Vec<&str> = Vec::new();
        let mut total = self.anon_weight.max(f64::MIN_POSITIVE);
        for t in self.tokens.values() {
            if !seen.contains(&t.name.as_str()) {
                seen.push(&t.name);
                total += t.weight;
            }
        }
        total
    }

    /// A tenant's slice of the engine's global backlog cap, in
    /// milliseconds: `max_backlog_ms × weight / total_weight`, floored
    /// at one registry-scale budget (60 s) so a legitimate single heavy
    /// experiment is never unrunnable. The floor itself is clamped to
    /// the global cap: a sub-minute `max_backlog_ms` (tests, tightly
    /// provisioned nodes) must not hand every tenant a slice *larger*
    /// than the whole backlog, which would stop the per-tenant cap from
    /// ever binding.
    pub fn backlog_cap_ms(&self, tenant: &str, max_backlog_ms: u64) -> u64 {
        let share = self.weight_of(tenant) / self.total_weight();
        ((max_backlog_ms as f64 * share) as u64).max(60_000.min(max_backlog_ms))
    }

    /// True when any quota dimension is enforced.
    pub fn quotas_enabled(&self) -> bool {
        self.quota.is_some()
    }
}

/// A weighted token bucket: refills continuously at `rate_per_s`, holds
/// at most `capacity` tokens, drains one token per admitted request.
#[derive(Debug)]
pub struct TokenBucket {
    tokens: f64,
    capacity: f64,
    rate_per_s: f64,
    last: Instant,
}

impl TokenBucket {
    /// A bucket for the given tenant weight under `cfg`, starting full.
    ///
    /// # Panics
    ///
    /// On a non-positive weight. A weight of exactly 0 would build a
    /// bucket with the floored capacity of 1 and a refill rate of 0 —
    /// one admitted request, then a permanent block behind 60 s retry
    /// hints. Nothing legitimately wants that, so the semantics are
    /// *reject at configuration time*: [`AuthConfig::parse`] and
    /// [`AuthConfig::with_token`] refuse zero weights, and this
    /// constructor backstops them.
    pub fn new(cfg: &QuotaConfig, weight: f64, now: Instant) -> TokenBucket {
        assert!(weight > 0.0, "token bucket needs a positive weight, got {weight}");
        let capacity = (cfg.burst * weight).max(1.0);
        TokenBucket {
            tokens: capacity,
            capacity,
            rate_per_s: (cfg.rate_per_s * weight).max(0.0),
            last: now,
        }
    }

    /// Takes one token, refilling first. `Err(retry_after_ms)` when the
    /// bucket is empty — the hint is how long until one token refills
    /// (clamped to `[1 ms, 60 s]`; a zero-rate bucket reports 60 s).
    pub fn try_take(&mut self, now: Instant) -> Result<(), u64> {
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * self.rate_per_s).min(self.capacity);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            return Ok(());
        }
        let retry_after_ms = if self.rate_per_s > 0.0 {
            (((1.0 - self.tokens) / self.rate_per_s) * 1000.0).ceil() as u64
        } else {
            60_000
        };
        Err(retry_after_ms.clamp(1, 60_000))
    }

    /// Tokens currently available (test observability).
    pub fn available(&self) -> f64 {
        self.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn token_file_parses_weights_comments_and_defaults() {
        let cfg = AuthConfig::parse(
            "# fleet tenants\n\
             tokA team-blas 3\n\
             \n\
             tokB team-fft   # trailing comment, default weight\n",
        )
        .expect("parse");
        let a = cfg.authenticate("tokA").expect("tokA");
        assert_eq!((a.name.as_str(), a.weight), ("team-blas", 3.0));
        let b = cfg.authenticate("tokB").expect("tokB");
        assert_eq!((b.name.as_str(), b.weight), ("team-fft", 1.0));
        assert!(cfg.authenticate("nope").is_none());
        assert!(cfg.quotas_enabled(), "a token file arms quotas");
        assert_eq!(cfg.anon_weight, DEFAULT_ANON_WEIGHT);
    }

    #[test]
    fn token_file_rejects_malformed_lines_with_line_numbers() {
        for (text, line, needle) in [
            ("tokA\n", 1, "lacks a tenant"),
            ("tokA t 1\ntokB u zero\n", 2, "not a positive number"),
            ("tokA t -1\n", 1, "not a positive number"),
            ("tokA t 1 extra\n", 1, "trailing field"),
            ("tokA t\ntokA u\n", 2, "duplicate token"),
            ("tokA anon 1\n", 1, "reserved"),
            ("tokA fleet 1\n", 1, "reserved"),
        ] {
            let err = AuthConfig::parse(text).expect_err(text);
            assert_eq!(err.line, line, "{text}");
            assert!(err.reason.contains(needle), "{text}: {}", err.reason);
        }
    }

    #[test]
    fn weights_and_backlog_slices_follow_the_token_file() {
        let cfg = AuthConfig::parse("a team-a 3\nb team-b 1\n").expect("parse");
        assert_eq!(cfg.weight_of("team-a"), 3.0);
        assert_eq!(cfg.weight_of("team-b"), 1.0);
        assert_eq!(cfg.weight_of(ANON_TENANT), DEFAULT_ANON_WEIGHT);
        let total = 3.0 + 1.0 + DEFAULT_ANON_WEIGHT;
        assert!((cfg.total_weight() - total).abs() < 1e-12);
        // Slices are proportional and ordered by weight.
        let cap = 100 * 60_000;
        let a = cfg.backlog_cap_ms("team-a", cap);
        let b = cfg.backlog_cap_ms("team-b", cap);
        let anon = cfg.backlog_cap_ms(ANON_TENANT, cap);
        assert!(a > b && b > anon, "{a} {b} {anon}");
        assert_eq!(a, (cap as f64 * 3.0 / total) as u64);
        // The floor keeps a single heavy experiment runnable even for a
        // sliver of a share.
        assert_eq!(cfg.backlog_cap_ms(ANON_TENANT, 10 * 60_000), 60_000);
    }

    #[test]
    fn sub_minute_global_caps_bound_the_backlog_floor() {
        // Regression: the one-heavy-experiment floor used to be an
        // unconditional 60 s, so with a sub-minute global cap every
        // tenant's slice exceeded the whole backlog and the per-tenant
        // cap silently stopped binding. The floor clamps to the global
        // cap instead.
        let cfg = AuthConfig::parse("a team-a 3\nb team-b 1\n").expect("parse");
        for cap in [1, 500, 30_000] {
            for tenant in ["team-a", "team-b", ANON_TENANT] {
                let slice = cfg.backlog_cap_ms(tenant, cap);
                assert!(
                    slice <= cap,
                    "{tenant}'s slice {slice} exceeds the global cap {cap}"
                );
            }
        }
        assert_eq!(cfg.backlog_cap_ms(ANON_TENANT, 1), 1);
        assert_eq!(cfg.backlog_cap_ms(ANON_TENANT, 30_000), 30_000, "floored at the cap");
        // At and above one minute the registry-scale floor is unchanged.
        assert_eq!(cfg.backlog_cap_ms(ANON_TENANT, 60_000), 60_000);
    }

    #[test]
    fn two_tokens_one_tenant_count_the_weight_once() {
        let cfg = AuthConfig::parse("a team-x 2\nb team-x 2\nc team-y 1\n").expect("parse");
        let total = 2.0 + 1.0 + DEFAULT_ANON_WEIGHT;
        assert!((cfg.total_weight() - total).abs() < 1e-12);
    }

    #[test]
    fn bucket_drains_per_request_and_reports_retry_hint() {
        let cfg = QuotaConfig {
            rate_per_s: 0.0,
            burst: 2.0,
        };
        let t0 = Instant::now();
        let mut bucket = TokenBucket::new(&cfg, 1.0, t0);
        assert!(bucket.try_take(t0).is_ok());
        assert!(bucket.try_take(t0).is_ok());
        let hint = bucket.try_take(t0).expect_err("empty bucket rejects");
        assert_eq!(hint, 60_000, "zero-rate bucket reports the cap");
    }

    #[test]
    fn bucket_refills_at_the_weighted_rate() {
        let cfg = QuotaConfig {
            rate_per_s: 10.0,
            burst: 1.0,
        };
        let t0 = Instant::now();
        // Weight 2 → 20 tokens/s, capacity 2.
        let mut bucket = TokenBucket::new(&cfg, 2.0, t0);
        assert!(bucket.try_take(t0).is_ok());
        assert!(bucket.try_take(t0).is_ok());
        let hint = bucket.try_take(t0).expect_err("drained");
        assert!(hint <= 50, "20/s refill → ≤50 ms to one token, got {hint}");
        // 100 ms later two tokens refilled (capped at capacity 2).
        let t1 = t0 + Duration::from_millis(100);
        assert!(bucket.try_take(t1).is_ok());
        assert!(bucket.try_take(t1).is_ok());
        assert!(bucket.try_take(t1).is_err());
    }

    #[test]
    fn zero_weight_is_rejected_at_configuration_time() {
        // A weight-0 bucket would admit one request (floored capacity 1)
        // and then block forever (refill 0); the pinned semantics are
        // that zero weights never reach a bucket at all.
        for text in ["tokA t 0\n", "tokA t 0.0\n", "tokA t -0.0\n"] {
            let err = AuthConfig::parse(text).expect_err(text);
            assert!(
                err.reason.contains("not a positive number"),
                "{text}: {}",
                err.reason
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn token_bucket_backstop_refuses_zero_weight() {
        let _ = TokenBucket::new(&QuotaConfig::default(), 0.0, Instant::now());
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn with_token_refuses_zero_weight() {
        let _ = AuthConfig::default().with_token("tok", "team-x", 0.0);
    }

    #[test]
    fn with_token_refuses_reserved_tenant_names() {
        for reserved in [ANON_TENANT, FLEET_TENANT] {
            let refused =
                std::panic::catch_unwind(|| AuthConfig::default().with_token("tok", reserved, 1.0));
            assert!(refused.is_err(), "`{reserved}` must be refused");
        }
    }

    #[test]
    fn default_config_is_fully_open() {
        let cfg = AuthConfig::default();
        assert!(!cfg.quotas_enabled());
        assert!(cfg.authenticate("anything").is_none());
    }
}

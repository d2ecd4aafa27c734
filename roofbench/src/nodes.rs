//! In-process roofd nodes on ephemeral loopback ports.

use crate::trace::Tracer;
use experiments::registry::run_experiment;
use roofline_service::auth::AuthConfig;
use roofline_service::engine::{Engine, EngineConfig};
use roofline_service::fleet::FleetConfig;
use roofline_service::server::{Server, ServerConfig, ShutdownHandle};
use roofline_service::stats::StatsSnapshot;
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// The two tenants every node knows: `(token, tenant)`.
pub const TENANTS: [(&str, &str); 2] = [("tok-a", "team-a"), ("tok-b", "team-b")];

/// Hash seed of every spawned fleet.
pub const FLEET_SEED: u64 = 42;

/// Token auth for the two tenants, with no quota: a faster server is
/// never throttled by the benchmark's own settings.
fn auth() -> AuthConfig {
    TENANTS
        .iter()
        .fold(AuthConfig::default(), |auth, (token, tenant)| {
            auth.with_token(token, tenant, 1.0)
        })
}

/// One serving node; the engine handle reads its counters in-process.
struct Node {
    addr: String,
    engine: Engine,
    handle: ShutdownHandle,
    thread: Option<thread::JoinHandle<std::io::Result<()>>>,
}

/// A set of nodes; with more than one they form a rendezvous fleet.
/// Dropping it stops every node and waits for its serve loop to end.
pub struct Nodes {
    nodes: Vec<Node>,
}

impl Nodes {
    /// Binds `n` nodes, each with a disk cache under `cache_root/node<i>`.
    /// Every computation is wrapped in an `experiment.<id>` span.
    ///
    /// # Errors
    ///
    /// A bind failure.
    pub fn spawn(n: usize, cache_root: &Path, tracer: &Arc<Tracer>) -> std::io::Result<Nodes> {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<Result<_, _>>()?;
        let addrs: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().map(|a| a.to_string()))
            .collect::<Result<_, _>>()?;
        let mut nodes = Vec::new();
        for (i, listener) in listeners.into_iter().enumerate() {
            let fleet = (n > 1).then(|| {
                let mut fleet = FleetConfig::new(
                    addrs[i].clone(),
                    addrs.clone(),
                    FLEET_SEED,
                    format!("roofbench-fleet-{FLEET_SEED}"),
                );
                // A busy owner should cost a bounded wait before the
                // local-compute fallback, not the 30 s service default.
                fleet.io_timeout = Duration::from_secs(2);
                fleet
            });
            let cfg = EngineConfig {
                cache_dir: Some(cache_root.join(format!("node{i}"))),
                auth: auth(),
                fleet,
                ..EngineConfig::default()
            };
            let tracer = Arc::clone(tracer);
            let engine = Engine::with_compute(cfg, move |e, platform, fidelity| {
                let _span = tracer.span(format!("experiment.{}", e.id()), None, None);
                run_experiment(e, platform, fidelity)
            });
            let server = Server::from_listener(listener, engine.clone(), ServerConfig::default());
            let handle = server.shutdown_handle();
            nodes.push(Node {
                addr: addrs[i].clone(),
                engine,
                handle,
                thread: Some(thread::spawn(move || server.serve())),
            });
        }
        Ok(Nodes { nodes })
    }

    /// The node addresses.
    pub fn addrs(&self) -> Vec<String> {
        self.nodes.iter().map(|n| n.addr.clone()).collect()
    }

    /// Each node's counters.
    pub fn stats(&self) -> Vec<StatsSnapshot> {
        self.nodes.iter().map(|n| n.engine.stats()).collect()
    }
}

impl Drop for Nodes {
    fn drop(&mut self) {
        for n in &self.nodes {
            n.handle.trigger();
        }
        for n in &mut self.nodes {
            if let Some(t) = n.thread.take() {
                let _ = t.join();
            }
        }
    }
}

//! The client executor against real in-process nodes, sized by function
//! arguments: one node and a cheap tuple.

use experiments::registry::Experiment;
use roofbench::exec::{execute, Lane};
use roofbench::nodes::{Nodes, TENANTS};
use roofbench::requests::Tuple;
use roofbench::trace::Tracer;
use roofbench::workloads::service::check_warm_reply;
use roofline_service::client::RunReply;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

const E1: Tuple = Tuple {
    experiment: Experiment::E1,
    platform: "snb",
};

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("roofbench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn direct_tree(dir: &std::path::Path) -> std::collections::BTreeMap<String, String> {
    experiments::sweep::run_one(E1.experiment, E1.platform, Tuple::FIDELITY, dir)
        .expect("direct run");
    experiments::snapshot::read_tree(dir).expect("direct tree")
}

#[test]
fn one_node_computes_then_serves_from_memory_byte_identically() {
    let dir = scratch("exec");
    let tracer = Arc::new(Tracer::default());
    tracer.set_on(true);
    let nodes = Nodes::spawn(1, &dir.join("cache"), &tracer).expect("spawn");
    let replies = Mutex::new(Vec::new());
    let record = |_: &Tuple, reply: &RunReply| {
        replies
            .lock()
            .unwrap()
            .push((reply.source.clone(), reply.artifacts.clone()));
        Ok(())
    };
    let lanes = [Lane {
        token: Some(TENANTS[0].0),
        requests: vec![E1, E1],
    }];
    let calls = execute(&nodes.addrs(), &lanes, 7, &tracer, &record);
    drop(nodes);
    tracer.set_on(false);

    assert_eq!(calls.len(), 1);
    for call in &calls[0] {
        assert!(call.error.is_none(), "{:?}", call.error);
        assert!(call.latency_us.unwrap() >= call.connect_us + call.auth_us + call.run_us - 1.0);
    }
    let replies = replies.into_inner().unwrap();
    let sources: Vec<&str> = replies.iter().map(|(s, _)| s.as_str()).collect();
    assert_eq!(sources, ["computed", "mem"]);
    assert_eq!(
        replies[0].1, replies[1].1,
        "the hit must carry the computed tree"
    );
    assert_eq!(
        replies[0].1,
        direct_tree(&dir.join("direct")),
        "served tree must equal sweep::run_one"
    );

    // Every request left its spans: one computation, and a connect, auth
    // and run per request, each run holding the server's own time.
    let spans = tracer.spans();
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(count("experiment.E1"), 1);
    assert_eq!(
        (
            count("request"),
            count("client.auth"),
            count("client.run"),
            count("server")
        ),
        (2, 2, 2, 2)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn roofd_warm_check_fails_a_reply_that_was_not_a_memory_hit() {
    let dir = scratch("warmcheck");
    let reference = direct_tree(&dir.join("direct"));
    let tracer = Arc::new(Tracer::default());
    // A cold node: the first reply is computed, which the warm check must
    // reject even though the tree itself is right.
    let nodes = Nodes::spawn(1, &dir.join("cache"), &tracer).expect("spawn");
    let check = |_: &Tuple, reply: &RunReply| check_warm_reply(reply, Some(&reference));
    let lanes = [Lane {
        token: None,
        requests: vec![E1, E1],
    }];
    let calls = execute(&nodes.addrs(), &lanes, 7, &tracer, &check);
    drop(nodes);
    let errors: Vec<Option<String>> = calls[0].iter().map(|c| c.error.clone()).collect();
    assert!(
        errors[0]
            .as_deref()
            .is_some_and(|e| e.contains("source computed")),
        "{errors:?}"
    );
    assert_eq!(errors[1], None, "the memory hit with the right tree passes");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn roofd_warm_check_rejects_a_wrong_tree_or_status() {
    let mut tree = std::collections::BTreeMap::new();
    tree.insert("e1_report.txt".to_string(), "ok\n".to_string());
    let reply = |status: &str, source: &str, body: &str| RunReply {
        status: status.to_string(),
        cache_hit: true,
        source: source.to_string(),
        elapsed_ms: 0,
        budget_ms: 0,
        over_budget: false,
        compute_ms: None,
        error: None,
        detail: None,
        integrity: Vec::new(),
        artifacts: [("e1_report.txt".to_string(), body.to_string())]
            .into_iter()
            .collect(),
    };
    assert!(check_warm_reply(&reply("pass", "mem", "ok\n"), Some(&tree)).is_ok());
    assert!(check_warm_reply(&reply("pass", "disk", "ok\n"), Some(&tree)).is_err());
    assert!(check_warm_reply(&reply("pass", "mem", "changed\n"), Some(&tree)).is_err());
    assert!(check_warm_reply(&reply("failed", "mem", "ok\n"), Some(&tree)).is_err());
    assert!(check_warm_reply(&reply("pass", "mem", "ok\n"), None).is_err());
}

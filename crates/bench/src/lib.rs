//! Layer microbenchmarks of the simulator and the roofd engine.
//!
//! [`harness`] holds the probes roofbench's traced run measures with one
//! warm-up and five trials each (`roofbench/src/probes.rs`). Performance
//! is gated by `scripts/perf_ab.py`, which runs roofbench on the base and
//! the head of a change in alternating pairs.

pub mod harness {
    //! Measurement bodies.
    //!
    //! Each microbenchmark isolates one layer of the simulator's per-
    //! instruction cost (front end only, FP ports, L1-hit memory fast
    //! path, miss paths), so a regression points at the layer that
    //! caused it.

    use std::time::Instant;

    use experiments::platforms::Fidelity;
    use experiments::registry::Experiment;
    use simx86::config::sandy_bridge;
    use simx86::isa::{FpOp, Precision, Reg, VecWidth};
    use simx86::prelude::PatOp;
    use simx86::Machine;

    const W: VecWidth = VecWidth::Y256;
    const P: Precision = Precision::F64;

    /// One memory-system microbenchmark result.
    #[derive(Debug, Clone)]
    pub struct MicroResult {
        /// Stable identifier (`l1_hit_stream`, ...).
        pub id: &'static str,
        /// Simulated accesses (or instructions) per wall second, in
        /// millions.
        pub mops_per_s: f64,
        /// Operations performed.
        pub ops: u64,
    }

    fn time_machine<F: FnOnce(&mut Machine) -> u64>(id: &'static str, body: F) -> MicroResult {
        let mut m = Machine::new(sandy_bridge());
        let t0 = Instant::now();
        let ops = body(&mut m);
        let secs = t0.elapsed().as_secs_f64();
        MicroResult {
            id,
            mops_per_s: ops as f64 / secs / 1e6,
            ops,
        }
    }

    /// L1-resident loads walking one page in 32-byte steps: all but one
    /// access in two hits the line touched last, exercising the
    /// unit-stride streaming fast path.
    pub fn bench_l1_hit_stream(accesses: u64) -> MicroResult {
        time_machine("l1_hit_stream", |m| {
            let buf = m.alloc(4096);
            m.run(0, |cpu| {
                // One `load_run` per page pass: the same address sequence
                // as the scalar loop, batched 128 accesses at a time.
                let per_pass = 4096 / 32;
                for _ in 0..accesses / per_pass {
                    cpu.load_run(Reg::new(0), buf.at(0), 32, W, P, per_pass);
                }
                cpu.load_run(Reg::new(0), buf.at(0), 32, W, P, accesses % per_pass);
            });
            accesses
        })
    }

    /// Cold unit-stride streaming loads from DRAM with prefetch enabled:
    /// demand misses, the stream prefetcher, and the IMC model.
    pub fn bench_dram_stream(accesses: u64) -> MicroResult {
        time_machine("dram_stream", |m| {
            let buf = m.alloc(accesses * 32);
            m.run(0, |cpu| {
                cpu.load_run(Reg::new(0), buf.at(0), 32, W, P, accesses);
            });
            accesses
        })
    }

    /// Cold streaming with prefetchers off: fill-buffer-limited misses.
    pub fn bench_dram_stream_noprefetch(accesses: u64) -> MicroResult {
        time_machine("dram_stream_noprefetch", |m| {
            m.set_prefetch(false, false);
            let buf = m.alloc(accesses * 32);
            m.run(0, |cpu| {
                cpu.load_run(Reg::new(0), buf.at(0), 32, W, P, accesses);
            });
            accesses
        })
    }

    /// Write-allocate store stream: RFO reads plus eviction writebacks.
    pub fn bench_store_stream(accesses: u64) -> MicroResult {
        time_machine("store_stream", |m| {
            let buf = m.alloc(accesses * 32);
            m.run(0, |cpu| {
                cpu.store_run(Reg::new(8), buf.at(0), 32, W, P, accesses);
            });
            accesses
        })
    }

    /// Front-end-only instructions (no ports, no memory): isolates the
    /// dispatch/retire bookkeeping cost per instruction.
    pub fn bench_frontend_only(instrs: u64) -> MicroResult {
        time_machine("frontend_only", |m| {
            m.run(0, |cpu| cpu.overhead(instrs));
            instrs
        })
    }

    /// Independent FP adds/muls: dispatch plus port-slot scheduling.
    pub fn bench_fp_ports(instrs: u64) -> MicroResult {
        time_machine("fp_ports", |m| {
            m.run(0, |cpu| {
                // The scalar loop's 8-instruction period (alternating
                // add/mul over rotating destinations) as one pattern; the
                // steady-state jump retires almost the whole run closed
                // form.
                let pat: Vec<PatOp> = (0..8u8)
                    .map(|i| PatOp::Fp {
                        op: if i % 2 == 0 { FpOp::Add } else { FpOp::Mul },
                        dst: Reg::new(i),
                        a: Reg::new(14),
                        b: Reg::new(15),
                    })
                    .collect();
                cpu.run_pattern(&pat, W, P, instrs / 8);
                for i in (instrs / 8) * 8..instrs {
                    let d = Reg::new((i % 8) as u8);
                    if i % 2 == 0 {
                        cpu.fadd(d, Reg::new(14), Reg::new(15), W, P);
                    } else {
                        cpu.fmul(d, Reg::new(14), Reg::new(15), W, P);
                    }
                }
            });
            instrs
        })
    }

    /// Round trips through the roofd engine's cached-hit fast path —
    /// the submit → key digest → memory-LRU hit → clone path every
    /// warm request takes, including the deadline computation and the
    /// poison-recovering locks the hardening layer added there. A
    /// regression here means the resilience layer grew a per-request
    /// cost, which it must not.
    ///
    /// With `noop_faults` the fault lottery is *enabled* but every rate
    /// is zero, pinning the claim that an armed-but-inert chaos config
    /// is free on the hot path.
    pub fn bench_service_cached_hits(hits: u64, noop_faults: bool) -> MicroResult {
        use experiments::output::ExperimentOutput;
        use roofline_service::engine::{Engine, EngineConfig, Outcome, Request};
        use roofline_service::faults::ServiceFaults;

        let cfg = EngineConfig {
            cache_dir: None,
            faults: if noop_faults {
                ServiceFaults::enabled_noop()
            } else {
                ServiceFaults::default()
            },
            ..EngineConfig::default()
        };
        let engine = Engine::with_compute(cfg, |e, _, _| {
            let mut out = ExperimentOutput::new(e.id(), e.title());
            out.finding("bench", "cached-hit payload");
            out
        });
        let req = Request::new(Experiment::E1, "snb", Fidelity::Quick);
        assert!(
            matches!(engine.submit(&req), Outcome::Done(_)),
            "warm-up submit must succeed"
        );
        let t0 = Instant::now();
        for _ in 0..hits {
            match engine.submit(&req) {
                Outcome::Done(done) => debug_assert_eq!(done.source.as_str(), "mem"),
                other => panic!("cached hit turned into {other:?}"),
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        MicroResult {
            id: if noop_faults {
                "service_cached_hit_noop_faults"
            } else {
                "service_cached_hit"
            },
            mops_per_s: hits as f64 / secs / 1e6,
            ops: hits,
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn micro_benches_report_positive_rates() {
            for r in [
                bench_l1_hit_stream(8_000),
                bench_dram_stream(2_000),
                bench_dram_stream_noprefetch(1_000),
                bench_store_stream(2_000),
                bench_frontend_only(8_000),
                bench_fp_ports(8_000),
                bench_service_cached_hits(200, false),
                bench_service_cached_hits(200, true),
            ] {
                assert!(r.mops_per_s > 0.0, "{} reported no rate", r.id);
                assert!(r.ops > 0);
            }
        }
    }
}

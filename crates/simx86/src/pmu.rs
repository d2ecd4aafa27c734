//! Performance-monitoring counters.
//!
//! Mirrors the event set the ISPASS'14 methodology programs on real Sandy
//! Bridge hardware: per-core FP retirement events (split by vector width and
//! precision), instruction/cycle counts, last-level-cache demand misses, and
//! the uncore integrated-memory-controller (IMC) line transfer counters.
//!
//! Counters only ever increment; measurement code takes snapshots before and
//! after a region and subtracts, exactly like `perf` does with the real
//! syscall interface.

use crate::isa::{FpOp, Precision, VecWidth};

/// Per-core events, named after their hardware counterparts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CoreEvent {
    /// `FP_COMP_OPS_EXE.SSE_SCALAR_DOUBLE`: scalar double FP instructions.
    FpScalarDouble,
    /// `FP_COMP_OPS_EXE.SSE_FP_PACKED_DOUBLE`: 128-bit packed double.
    FpPacked128Double,
    /// `SIMD_FP_256.PACKED_DOUBLE`: 256-bit packed double.
    FpPacked256Double,
    /// `FP_COMP_OPS_EXE.SSE_SCALAR_SINGLE`.
    FpScalarSingle,
    /// `FP_COMP_OPS_EXE.SSE_PACKED_SINGLE`.
    FpPacked128Single,
    /// `SIMD_FP_256.PACKED_SINGLE`.
    FpPacked256Single,
    /// `INST_RETIRED.ANY`.
    InstRetired,
    /// `CPU_CLK_UNHALTED.THREAD`: core clock cycles while busy.
    ClkUnhalted,
    /// `LONGEST_LAT_CACHE.MISS`: demand accesses that missed the LLC.
    /// Prefetch fills are *not* counted — the undercounting pitfall of E7.
    LlcMiss,
    /// Loads retired (any level).
    LoadsRetired,
    /// Stores retired.
    StoresRetired,
}

impl CoreEvent {
    /// All per-core events, for iteration in tables.
    pub const ALL: [CoreEvent; 11] = [
        CoreEvent::FpScalarDouble,
        CoreEvent::FpPacked128Double,
        CoreEvent::FpPacked256Double,
        CoreEvent::FpScalarSingle,
        CoreEvent::FpPacked128Single,
        CoreEvent::FpPacked256Single,
        CoreEvent::InstRetired,
        CoreEvent::ClkUnhalted,
        CoreEvent::LlcMiss,
        CoreEvent::LoadsRetired,
        CoreEvent::StoresRetired,
    ];

    /// The hardware event name this models.
    pub fn hw_name(self) -> &'static str {
        match self {
            CoreEvent::FpScalarDouble => "FP_COMP_OPS_EXE.SSE_SCALAR_DOUBLE",
            CoreEvent::FpPacked128Double => "FP_COMP_OPS_EXE.SSE_FP_PACKED_DOUBLE",
            CoreEvent::FpPacked256Double => "SIMD_FP_256.PACKED_DOUBLE",
            CoreEvent::FpScalarSingle => "FP_COMP_OPS_EXE.SSE_SCALAR_SINGLE",
            CoreEvent::FpPacked128Single => "FP_COMP_OPS_EXE.SSE_PACKED_SINGLE",
            CoreEvent::FpPacked256Single => "SIMD_FP_256.PACKED_SINGLE",
            CoreEvent::InstRetired => "INST_RETIRED.ANY",
            CoreEvent::ClkUnhalted => "CPU_CLK_UNHALTED.THREAD",
            CoreEvent::LlcMiss => "LONGEST_LAT_CACHE.MISS",
            CoreEvent::LoadsRetired => "MEM_UOPS_RETIRED.ALL_LOADS",
            CoreEvent::StoresRetired => "MEM_UOPS_RETIRED.ALL_STORES",
        }
    }
}

/// Machine-wide (uncore) events at the integrated memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UncoreEvent {
    /// `UNC_IMC_DRAM_DATA_READS`: 64-byte lines read from DRAM, including
    /// prefetches and every core's traffic.
    ImcDramDataReads,
    /// `UNC_IMC_DRAM_DATA_WRITES`: 64-byte lines written to DRAM.
    ImcDramDataWrites,
}

impl UncoreEvent {
    /// All uncore events.
    pub const ALL: [UncoreEvent; 2] =
        [UncoreEvent::ImcDramDataReads, UncoreEvent::ImcDramDataWrites];

    /// The hardware event name this models.
    pub fn hw_name(self) -> &'static str {
        match self {
            UncoreEvent::ImcDramDataReads => "UNC_IMC_DRAM_DATA_READS",
            UncoreEvent::ImcDramDataWrites => "UNC_IMC_DRAM_DATA_WRITES",
        }
    }
}

/// The counter bank of one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCounters {
    counts: [u64; CoreEvent::ALL.len()],
}

impl CoreCounters {
    /// Slot of an event in the counter bank. A `const` match (not a scan of
    /// [`CoreEvent::ALL`]): this sits on the per-instruction hot path of the
    /// simulator, and the compiler folds it to a constant at every call
    /// site. Must stay in sync with `ALL` — pinned by a test below.
    const fn idx(ev: CoreEvent) -> usize {
        match ev {
            CoreEvent::FpScalarDouble => 0,
            CoreEvent::FpPacked128Double => 1,
            CoreEvent::FpPacked256Double => 2,
            CoreEvent::FpScalarSingle => 3,
            CoreEvent::FpPacked128Single => 4,
            CoreEvent::FpPacked256Single => 5,
            CoreEvent::InstRetired => 6,
            CoreEvent::ClkUnhalted => 7,
            CoreEvent::LlcMiss => 8,
            CoreEvent::LoadsRetired => 9,
            CoreEvent::StoresRetired => 10,
        }
    }

    /// Reads one counter.
    pub fn get(&self, ev: CoreEvent) -> u64 {
        self.counts[Self::idx(ev)]
    }

    pub(crate) fn add(&mut self, ev: CoreEvent, n: u64) {
        self.counts[Self::idx(ev)] += n;
    }

    /// Overwrites one counter; only the fault-injection layer may rewrite
    /// history, and it preserves monotonicity by construction.
    pub(crate) fn set(&mut self, ev: CoreEvent, v: u64) {
        self.counts[Self::idx(ev)] = v;
    }

    /// Component-wise sum, used to rebuild totals from perturbed deltas.
    pub(crate) fn plus(&self, delta: &CoreCounters) -> CoreCounters {
        let mut out = *self;
        for (i, d) in delta.counts.iter().enumerate() {
            out.counts[i] += d;
        }
        out
    }

    /// Records the retirement of one FP arithmetic instruction.
    ///
    /// This reproduces the hardware semantics validated in the literature:
    /// the counter counts *instructions* per width class, and an FMA
    /// retirement increments its class counter by **two** (so that the
    /// standard width-weighting recovers true flops).
    /// Min/max/compare instructions do not increment any FP event — the
    /// documented blind spot of the method.
    pub(crate) fn count_fp(&mut self, op: FpOp, width: VecWidth, prec: Precision) {
        if let Some((ev, increments)) = fp_event(op, width, prec) {
            self.add(ev, increments);
        }
    }

    /// Width-weighted flop count for a precision, the paper's formula:
    /// `scalar + 2·packed128 + 4·packed256` for doubles (and `1/4/8` for
    /// singles).
    pub fn flops(&self, prec: Precision) -> u64 {
        match prec {
            Precision::F64 => {
                self.get(CoreEvent::FpScalarDouble)
                    + 2 * self.get(CoreEvent::FpPacked128Double)
                    + 4 * self.get(CoreEvent::FpPacked256Double)
            }
            Precision::F32 => {
                self.get(CoreEvent::FpScalarSingle)
                    + 4 * self.get(CoreEvent::FpPacked128Single)
                    + 8 * self.get(CoreEvent::FpPacked256Single)
            }
        }
    }

    /// Difference since an earlier snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` has a larger value in any counter — counters are
    /// monotone, so that indicates snapshots taken out of order.
    pub fn since(&self, earlier: &CoreCounters) -> CoreCounters {
        let mut out = CoreCounters::default();
        for (i, (now, before)) in self.counts.iter().zip(earlier.counts.iter()).enumerate() {
            out.counts[i] = now
                .checked_sub(*before)
                .expect("counter snapshots out of order");
        }
        out
    }
}

/// The PMU event and increment one FP instruction retirement produces, or
/// `None` for the uncounted classes (min/max — the methodology blind spot).
/// `CoreCounters::count_fp` applies this per instruction; the batched-run
/// path multiplies the increment by the run length instead, so both paths
/// move the same counter by construction.
pub(crate) fn fp_event(op: FpOp, width: VecWidth, prec: Precision) -> Option<(CoreEvent, u64)> {
    let increments = match op {
        FpOp::MinMax => return None,
        FpOp::Fma => 2,
        _ => 1,
    };
    let ev = match (width, prec) {
        (VecWidth::Scalar, Precision::F64) => CoreEvent::FpScalarDouble,
        (VecWidth::X128, Precision::F64) => CoreEvent::FpPacked128Double,
        (VecWidth::Y256, Precision::F64) => CoreEvent::FpPacked256Double,
        (VecWidth::Scalar, Precision::F32) => CoreEvent::FpScalarSingle,
        (VecWidth::X128, Precision::F32) => CoreEvent::FpPacked128Single,
        (VecWidth::Y256, Precision::F32) => CoreEvent::FpPacked256Single,
    };
    Some((ev, increments))
}

/// The machine-wide uncore counter bank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UncoreCounters {
    /// Lines read from DRAM.
    reads: u64,
    /// Lines written to DRAM.
    writes: u64,
}

impl UncoreCounters {
    /// Reads one counter (in 64-byte lines, like the hardware).
    pub fn get(&self, ev: UncoreEvent) -> u64 {
        match ev {
            UncoreEvent::ImcDramDataReads => self.reads,
            UncoreEvent::ImcDramDataWrites => self.writes,
        }
    }

    pub(crate) fn add_reads(&mut self, lines: u64) {
        self.reads += lines;
    }

    pub(crate) fn add_writes(&mut self, lines: u64) {
        self.writes += lines;
    }

    /// Builds a bank directly from line counts (fault-injection layer).
    pub(crate) fn from_lines(reads: u64, writes: u64) -> UncoreCounters {
        UncoreCounters { reads, writes }
    }

    /// Component-wise sum, used to rebuild totals from perturbed deltas.
    pub(crate) fn plus(&self, delta: &UncoreCounters) -> UncoreCounters {
        UncoreCounters {
            reads: self.reads + delta.reads,
            writes: self.writes + delta.writes,
        }
    }

    /// Total DRAM traffic in bytes (`(reads + writes) * 64`), the paper's
    /// `Q`.
    pub fn traffic_bytes(&self, line_bytes: u64) -> u64 {
        (self.reads + self.writes) * line_bytes
    }

    /// Difference since an earlier snapshot.
    ///
    /// # Panics
    ///
    /// Panics if snapshots are out of order.
    pub fn since(&self, earlier: &UncoreCounters) -> UncoreCounters {
        UncoreCounters {
            reads: self
                .reads
                .checked_sub(earlier.reads)
                .expect("uncore snapshots out of order"),
            writes: self
                .writes
                .checked_sub(earlier.writes)
                .expect("uncore snapshots out of order"),
        }
    }
}

/// A level of the memory hierarchy, named from the core outwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemLevel {
    /// Per-core L1 data cache.
    L1,
    /// Per-core private L2.
    L2,
    /// Socket-shared last-level cache.
    L3,
    /// DRAM behind the integrated memory controller.
    Dram,
}

impl MemLevel {
    /// All levels, core-side first.
    pub const ALL: [MemLevel; 4] = [MemLevel::L1, MemLevel::L2, MemLevel::L3, MemLevel::Dram];

    /// Display label (`"L1"`, ..., `"DRAM"`).
    pub fn label(self) -> &'static str {
        match self {
            MemLevel::L1 => "L1",
            MemLevel::L2 => "L2",
            MemLevel::L3 => "L3",
            MemLevel::Dram => "DRAM",
        }
    }
}

/// The per-level slice of the hierarchical traffic bank: one cache level's
/// demand behaviour plus the line transfers crossing its fill port.
///
/// `hits`/`misses`/`prefetch_fills` come from the cache's own statistics;
/// `demand_fills`/`writebacks` are counted independently at the transfer
/// sites in the memory system. The two views are redundant on purpose —
/// the traffic-conservation property suite pins them against each other
/// (e.g. every L1 miss produces exactly one L1 demand fill).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelCounters {
    /// Demand accesses that hit this level.
    pub hits: u64,
    /// Demand accesses that missed this level.
    pub misses: u64,
    /// Lines installed into this level on behalf of a demand miss.
    pub demand_fills: u64,
    /// Lines installed into this level by the prefetchers.
    pub prefetch_fills: u64,
    /// Dirty lines evicted from this level to the level below.
    pub writebacks: u64,
}

impl LevelCounters {
    /// Demand accesses that reached this level (`hits + misses`).
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Total lines installed (`demand_fills + prefetch_fills`).
    pub fn fills(&self) -> u64 {
        self.demand_fills + self.prefetch_fills
    }

    /// Component-wise sum.
    pub fn plus(&self, delta: &LevelCounters) -> LevelCounters {
        LevelCounters {
            hits: self.hits + delta.hits,
            misses: self.misses + delta.misses,
            demand_fills: self.demand_fills + delta.demand_fills,
            prefetch_fills: self.prefetch_fills + delta.prefetch_fills,
            writebacks: self.writebacks + delta.writebacks,
        }
    }

    fn since(&self, earlier: &LevelCounters, what: &str) -> LevelCounters {
        let sub = |now: u64, before: u64| {
            now.checked_sub(before)
                .unwrap_or_else(|| panic!("{what} snapshots out of order"))
        };
        LevelCounters {
            hits: sub(self.hits, earlier.hits),
            misses: sub(self.misses, earlier.misses),
            demand_fills: sub(self.demand_fills, earlier.demand_fills),
            prefetch_fills: sub(self.prefetch_fills, earlier.prefetch_fills),
            writebacks: sub(self.writebacks, earlier.writebacks),
        }
    }
}

/// The machine-wide hierarchical traffic bank: per-level counters for
/// L1/L2/L3 plus the DRAM-port events that bypass the cache statistics
/// (non-temporal store lines and flush writebacks), and the IMC line
/// counters mirrored for convenience.
///
/// Like every other counter bank, values only ever increase and
/// measurement code works with [`HierCounters::since`] deltas. Per-level
/// byte volumes are derived at line granularity by
/// [`HierCounters::level_bytes`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierCounters {
    /// L1 counters, summed over all cores.
    pub l1: LevelCounters,
    /// L2 counters, summed over all cores.
    pub l2: LevelCounters,
    /// L3 counters, summed over all sockets.
    pub l3: LevelCounters,
    /// Write-combined lines sent straight to DRAM by non-temporal stores
    /// (they bypass every cache level and its statistics).
    pub nt_lines: u64,
    /// Dirty lines written to DRAM by explicit hierarchy flushes
    /// (`Cache::flush` does not touch cache statistics, so these are only
    /// visible here and at the IMC).
    pub flush_writebacks: u64,
    /// Lines read from DRAM (all sockets — equals the uncore read bank).
    pub dram_reads: u64,
    /// Lines written to DRAM (all sockets — equals the uncore write bank).
    pub dram_writes: u64,
    /// Cache-line size in bytes, for byte-volume derivation.
    pub line_bytes: u64,
}

impl HierCounters {
    /// The per-level slice for a cache level.
    ///
    /// # Panics
    ///
    /// Panics for [`MemLevel::Dram`], which has no cache-style counters;
    /// use the `dram_*` fields directly.
    pub fn level(&self, level: MemLevel) -> &LevelCounters {
        match level {
            MemLevel::L1 => &self.l1,
            MemLevel::L2 => &self.l2,
            MemLevel::L3 => &self.l3,
            MemLevel::Dram => panic!("DRAM has no cache-level counters"),
        }
    }

    /// Bytes moved across the *top* of a level — between it and the next
    /// level toward the core — at line granularity:
    ///
    /// * `L1`: core↔L1 demand accesses (`(hits + misses) × line`);
    /// * `L2`: L1↔L2 transfers (L1 fills plus L1 writebacks);
    /// * `L3`: L2↔L3 transfers (L2 demand + prefetch fills plus L2
    ///   writebacks);
    /// * `Dram`: L3↔DRAM transfers (IMC reads plus writes, which include
    ///   NT-store and flush traffic).
    pub fn level_bytes(&self, level: MemLevel) -> u64 {
        let lines = match level {
            MemLevel::L1 => self.l1.accesses(),
            MemLevel::L2 => self.l1.fills() + self.l1.writebacks,
            MemLevel::L3 => self.l2.fills() + self.l2.writebacks,
            MemLevel::Dram => self.dram_reads + self.dram_writes,
        };
        lines * self.line_bytes
    }

    /// Component-wise sum (delta aggregation across repetitions).
    pub fn plus(&self, delta: &HierCounters) -> HierCounters {
        HierCounters {
            l1: self.l1.plus(&delta.l1),
            l2: self.l2.plus(&delta.l2),
            l3: self.l3.plus(&delta.l3),
            nt_lines: self.nt_lines + delta.nt_lines,
            flush_writebacks: self.flush_writebacks + delta.flush_writebacks,
            dram_reads: self.dram_reads + delta.dram_reads,
            dram_writes: self.dram_writes + delta.dram_writes,
            line_bytes: self.line_bytes.max(delta.line_bytes),
        }
    }

    /// Difference since an earlier snapshot.
    ///
    /// # Panics
    ///
    /// Panics if snapshots are out of order (any counter decreased) or the
    /// two snapshots disagree on the line size.
    pub fn since(&self, earlier: &HierCounters) -> HierCounters {
        assert_eq!(
            self.line_bytes, earlier.line_bytes,
            "hier snapshots from different machines"
        );
        let sub = |now: u64, before: u64| {
            now.checked_sub(before)
                .expect("hier counter snapshots out of order")
        };
        HierCounters {
            l1: self.l1.since(&earlier.l1, "hier L1"),
            l2: self.l2.since(&earlier.l2, "hier L2"),
            l3: self.l3.since(&earlier.l3, "hier L3"),
            nt_lines: sub(self.nt_lines, earlier.nt_lines),
            flush_writebacks: sub(self.flush_writebacks, earlier.flush_writebacks),
            dram_reads: sub(self.dram_reads, earlier.dram_reads),
            dram_writes: sub(self.dram_writes, earlier.dram_writes),
            line_bytes: self.line_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hand-written `idx` match must agree with the position of every
    /// event in `ALL` (the iteration order of snapshots and reports).
    #[test]
    fn idx_matches_all_order() {
        for (i, &ev) in CoreEvent::ALL.iter().enumerate() {
            assert_eq!(CoreCounters::idx(ev), i, "{ev:?} out of sync with ALL");
        }
    }

    #[test]
    fn fp_counting_by_width_and_precision() {
        let mut c = CoreCounters::default();
        c.count_fp(FpOp::Add, VecWidth::Scalar, Precision::F64);
        c.count_fp(FpOp::Mul, VecWidth::X128, Precision::F64);
        c.count_fp(FpOp::Add, VecWidth::Y256, Precision::F64);
        c.count_fp(FpOp::Add, VecWidth::Y256, Precision::F32);
        assert_eq!(c.get(CoreEvent::FpScalarDouble), 1);
        assert_eq!(c.get(CoreEvent::FpPacked128Double), 1);
        assert_eq!(c.get(CoreEvent::FpPacked256Double), 1);
        assert_eq!(c.get(CoreEvent::FpPacked256Single), 1);
    }

    #[test]
    fn fma_increments_counter_twice() {
        let mut c = CoreCounters::default();
        c.count_fp(FpOp::Fma, VecWidth::Y256, Precision::F64);
        assert_eq!(c.get(CoreEvent::FpPacked256Double), 2);
        // Width weighting then yields 8 flops: 4 lanes * 2 ops.
        assert_eq!(c.flops(Precision::F64), 8);
    }

    #[test]
    fn minmax_not_counted() {
        let mut c = CoreCounters::default();
        c.count_fp(FpOp::MinMax, VecWidth::Y256, Precision::F64);
        assert_eq!(c.flops(Precision::F64), 0);
    }

    #[test]
    fn flop_weighting_formula() {
        let mut c = CoreCounters::default();
        for _ in 0..3 {
            c.count_fp(FpOp::Add, VecWidth::Scalar, Precision::F64);
        }
        for _ in 0..5 {
            c.count_fp(FpOp::Add, VecWidth::X128, Precision::F64);
        }
        for _ in 0..7 {
            c.count_fp(FpOp::Mul, VecWidth::Y256, Precision::F64);
        }
        assert_eq!(c.flops(Precision::F64), 3 + 2 * 5 + 4 * 7);
    }

    #[test]
    fn single_precision_weighting() {
        let mut c = CoreCounters::default();
        c.count_fp(FpOp::Add, VecWidth::X128, Precision::F32);
        c.count_fp(FpOp::Add, VecWidth::Y256, Precision::F32);
        assert_eq!(c.flops(Precision::F32), 4 + 8);
        assert_eq!(c.flops(Precision::F64), 0);
    }

    #[test]
    fn snapshot_delta() {
        let mut c = CoreCounters::default();
        c.add(CoreEvent::InstRetired, 10);
        let snap = c;
        c.add(CoreEvent::InstRetired, 5);
        assert_eq!(c.since(&snap).get(CoreEvent::InstRetired), 5);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_snapshots_panic() {
        let mut c = CoreCounters::default();
        c.add(CoreEvent::InstRetired, 10);
        let later = c;
        let earlier = CoreCounters::default();
        let _ = earlier.since(&later);
    }

    #[test]
    fn uncore_traffic_bytes() {
        let mut u = UncoreCounters::default();
        u.add_reads(3);
        u.add_writes(2);
        assert_eq!(u.get(UncoreEvent::ImcDramDataReads), 3);
        assert_eq!(u.traffic_bytes(64), 5 * 64);
    }

    #[test]
    fn uncore_snapshot_delta() {
        let mut u = UncoreCounters::default();
        u.add_reads(5);
        let snap = u;
        u.add_reads(2);
        u.add_writes(4);
        let d = u.since(&snap);
        assert_eq!(d.get(UncoreEvent::ImcDramDataReads), 2);
        assert_eq!(d.get(UncoreEvent::ImcDramDataWrites), 4);
    }

    fn sample_hier() -> HierCounters {
        HierCounters {
            l1: LevelCounters {
                hits: 90,
                misses: 10,
                demand_fills: 10,
                prefetch_fills: 0,
                writebacks: 4,
            },
            l2: LevelCounters {
                hits: 6,
                misses: 4,
                demand_fills: 4,
                prefetch_fills: 2,
                writebacks: 3,
            },
            l3: LevelCounters {
                hits: 1,
                misses: 3,
                demand_fills: 3,
                prefetch_fills: 2,
                writebacks: 1,
            },
            nt_lines: 5,
            flush_writebacks: 2,
            dram_reads: 5,
            dram_writes: 8,
            line_bytes: 64,
        }
    }

    #[test]
    fn hier_level_bytes_follow_transfer_definitions() {
        let h = sample_hier();
        assert_eq!(h.level_bytes(MemLevel::L1), (90 + 10) * 64);
        assert_eq!(h.level_bytes(MemLevel::L2), (10 + 4) * 64);
        assert_eq!(h.level_bytes(MemLevel::L3), (4 + 2 + 3) * 64);
        assert_eq!(h.level_bytes(MemLevel::Dram), (5 + 8) * 64);
    }

    #[test]
    fn hier_snapshot_delta_per_level() {
        let snap = sample_hier();
        let mut later = snap;
        later.l1.hits += 7;
        later.l2.writebacks += 1;
        later.nt_lines += 2;
        later.dram_writes += 3;
        let d = later.since(&snap);
        assert_eq!(d.l1.hits, 7);
        assert_eq!(d.l1.misses, 0);
        assert_eq!(d.l2.writebacks, 1);
        assert_eq!(d.nt_lines, 2);
        assert_eq!(d.dram_writes, 3);
        assert_eq!(d.line_bytes, 64);
        assert_eq!(snap.plus(&d), later);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn hier_out_of_order_snapshots_panic() {
        let later = sample_hier();
        let earlier = HierCounters {
            line_bytes: 64,
            ..HierCounters::default()
        };
        let _ = earlier.since(&later);
    }

    #[test]
    fn level_accessor_and_labels() {
        let h = sample_hier();
        assert_eq!(h.level(MemLevel::L2).accesses(), 10);
        assert_eq!(h.level(MemLevel::L3).fills(), 5);
        let labels: Vec<_> = MemLevel::ALL.iter().map(|l| l.label()).collect();
        assert_eq!(labels, ["L1", "L2", "L3", "DRAM"]);
    }

    #[test]
    fn hw_names_are_distinct() {
        let mut names: Vec<_> = CoreEvent::ALL.iter().map(|e| e.hw_name()).collect();
        names.extend(UncoreEvent::ALL.iter().map(|e| e.hw_name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}

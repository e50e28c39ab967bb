//! Configuration structures and the paper's presets (Tables 1, 2 and 3).
//!
//! Every core model in the workspace is constructed from one of the
//! configuration structures defined here:
//!
//! * [`MemoryHierarchyConfig`] — Table 1 memory-subsystem presets and the
//!   default hierarchy of Table 2 (32 KB L1 / 512 KB L2 / 400-cycle memory),
//! * [`BaselineConfig`] — the R10000-style out-of-order baselines (R10-64,
//!   R10-256, R10-768) and the idealised cores of Figures 1–3,
//! * [`KiloConfig`] — the traditional KILO-instruction processor baseline
//!   (pseudo-ROB + Slow-Lane Instruction Queue),
//! * [`DkipConfig`] — the decoupled KILO-instruction processor of the paper
//!   (Cache Processor, LLIB, LLRF, Memory Processors, Address Processor,
//!   Checkpointing Stack).

use crate::error::ConfigError;

/// Parameters of the sampled-simulation mode (SMARTS-style systematic
/// sampling): the stream is divided into fixed-length periods; in each
/// period the simulator functionally fast-forwards, then runs `warmup`
/// instructions detailed but unmeasured to heat caches and predictors,
/// then measures a `window` of detailed instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampleConfig {
    /// Sampling period in instructions: one detailed window is taken per
    /// `period` instructions of the stream.
    pub period: u64,
    /// Detailed-but-unmeasured instructions run before each window to warm
    /// microarchitectural state (may be 0).
    pub warmup: u64,
    /// Measured detailed instructions per window.
    pub window: u64,
}

impl SampleConfig {
    /// A default sampling regime for the throughput harness and the figure
    /// binaries: 10k-instruction periods with a 1k warmup and a 1k
    /// measured window (20% detailed).
    #[must_use]
    pub fn default_rate() -> Self {
        SampleConfig {
            period: 10_000,
            warmup: 1_000,
            window: 1_000,
        }
    }

    /// Instructions functionally fast-forwarded per period.
    #[must_use]
    pub fn skip(&self) -> u64 {
        self.period - self.warmup - self.window
    }

    /// Fraction of the stream simulated in detail (warmup + window).
    #[must_use]
    pub fn detailed_fraction(&self) -> f64 {
        (self.warmup + self.window) as f64 / self.period as f64
    }

    /// Parses the `period:warmup:window` syntax of the `sample=` option of
    /// `dkip-sim fig`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] on malformed syntax or a configuration
    /// that fails [`SampleConfig::validate`].
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut parts = text.split(':');
        let mut field = |name: &'static str| -> Result<u64, ConfigError> {
            parts
                .next()
                .ok_or_else(|| ConfigError::new(name, "expected period:warmup:window"))?
                .trim()
                .parse::<u64>()
                .map_err(|_| ConfigError::new(name, "expected a non-negative integer"))
        };
        let cfg = SampleConfig {
            period: field("sample.period")?,
            warmup: field("sample.warmup")?,
            window: field("sample.window")?,
        };
        if parts.next().is_some() {
            return Err(ConfigError::new(
                "sample",
                "expected exactly period:warmup:window",
            ));
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// Validates the sampling parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the window is empty or warmup + window
    /// do not fit in the period.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.window == 0 {
            return Err(ConfigError::new(
                "sample.window",
                "the measured window must be at least one instruction",
            ));
        }
        if self.warmup + self.window > self.period {
            return Err(ConfigError::new(
                "sample.period",
                "warmup + window must fit within the sampling period",
            ));
        }
        Ok(())
    }
}

impl std::fmt::Display for SampleConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}", self.period, self.warmup, self.window)
    }
}

/// Instruction scheduling policy of an issue queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedPolicy {
    /// Only the oldest instruction in the queue may issue each cycle
    /// (stalls on the first non-ready instruction).
    InOrder,
    /// Any ready instruction may issue, oldest first.
    OutOfOrder,
}

impl SchedPolicy {
    /// Short label used by the figure generators ("INO" / "OOO").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SchedPolicy::InOrder => "INO",
            SchedPolicy::OutOfOrder => "OOO",
        }
    }
}

/// Functional-unit pool counts (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuConfig {
    /// Number of integer ALUs (branches also use these).
    pub int_alu: usize,
    /// Number of integer multipliers.
    pub int_mul: usize,
    /// Number of floating-point adders.
    pub fp_add: usize,
    /// Number of floating-point multiplier/dividers.
    pub fp_mul_div: usize,
}

impl FuConfig {
    /// The execution resources of Table 2: 4 ALUs, 1 integer multiplier,
    /// 4 FP adders, 1 FP multiplier/divider.
    #[must_use]
    pub fn paper_default() -> Self {
        FuConfig {
            int_alu: 4,
            int_mul: 1,
            fp_add: 4,
            fp_mul_div: 1,
        }
    }

    /// An effectively unlimited set of functional units, used by the
    /// idealised cores of Section 2 where only the ROB limits execution.
    #[must_use]
    pub fn unlimited() -> Self {
        FuConfig {
            int_alu: 64,
            int_mul: 64,
            fp_add: 64,
            fp_mul_div: 64,
        }
    }

    /// Validates that every pool has at least one unit.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the empty pool.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.int_alu == 0 {
            return Err(ConfigError::new(
                "fu.int_alu",
                "at least one integer ALU is required",
            ));
        }
        if self.int_mul == 0 {
            return Err(ConfigError::new(
                "fu.int_mul",
                "at least one integer multiplier is required",
            ));
        }
        if self.fp_add == 0 {
            return Err(ConfigError::new(
                "fu.fp_add",
                "at least one FP adder is required",
            ));
        }
        if self.fp_mul_div == 0 {
            return Err(ConfigError::new(
                "fu.fp_mul_div",
                "at least one FP multiplier/divider is required",
            ));
        }
        Ok(())
    }
}

impl Default for FuConfig {
    fn default() -> Self {
        FuConfig::paper_default()
    }
}

/// Configuration of the two-level cache hierarchy plus main memory
/// (Table 1 and the memory rows of Table 2).
///
/// Latencies are in processor cycles. A `None` cache size means the cache is
/// *perfect* (infinite capacity, never misses), which is how the L1-2 and
/// L2-xx rows of Table 1 are modelled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryHierarchyConfig {
    /// Human-readable name of the configuration ("MEM-400", …).
    pub name: String,
    /// L1 data cache size in bytes, or `None` for a perfect L1.
    pub l1_size: Option<usize>,
    /// L1 hit latency in cycles.
    pub l1_latency: u64,
    /// L1 associativity.
    pub l1_assoc: usize,
    /// L2 cache size in bytes, or `None` if there is no L2 (perfect L1
    /// configurations) — a miss in L1 then goes straight to memory.
    pub l2_size: Option<usize>,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// Main-memory access latency in cycles.
    pub memory_latency: u64,
    /// Cache line size in bytes (both levels).
    pub line_size: usize,
    /// Whether L1 misses are satisfied by the L2 at all; when `false`
    /// (Table 1 rows L2-11 / L2-21) the L2 is perfect and memory is never
    /// reached.
    pub l2_perfect: bool,
}

impl MemoryHierarchyConfig {
    const KB: usize = 1024;

    fn base(name: &str) -> Self {
        MemoryHierarchyConfig {
            name: name.to_owned(),
            l1_size: Some(32 * Self::KB),
            l1_latency: 2,
            l1_assoc: 4,
            l2_size: Some(512 * Self::KB),
            l2_latency: 11,
            l2_assoc: 8,
            memory_latency: 400,
            line_size: 64,
            l2_perfect: false,
        }
    }

    /// Table 1, row `L1-2`: a perfect L1 cache with a 2-cycle access time.
    #[must_use]
    pub fn l1_2() -> Self {
        MemoryHierarchyConfig {
            l1_size: None,
            l2_size: None,
            l2_perfect: true,
            ..Self::base("L1-2")
        }
    }

    /// Table 1, row `L2-11`: 32 KB L1 (2 cycles) and a perfect L2 with an
    /// 11-cycle access time.
    #[must_use]
    pub fn l2_11() -> Self {
        MemoryHierarchyConfig {
            l2_size: None,
            l2_latency: 11,
            l2_perfect: true,
            ..Self::base("L2-11")
        }
    }

    /// Table 1, row `L2-21`: 32 KB L1 (2 cycles) and a perfect L2 with a
    /// 21-cycle access time.
    #[must_use]
    pub fn l2_21() -> Self {
        MemoryHierarchyConfig {
            l2_size: None,
            l2_latency: 21,
            l2_perfect: true,
            ..Self::base("L2-21")
        }
    }

    /// Table 1, row `MEM-100`: 32 KB L1, 512 KB L2 (11 cycles), 100-cycle
    /// memory.
    #[must_use]
    pub fn mem_100() -> Self {
        MemoryHierarchyConfig {
            memory_latency: 100,
            ..Self::base("MEM-100")
        }
    }

    /// Table 1, row `MEM-400`: 32 KB L1, 512 KB L2 (11 cycles), 400-cycle
    /// memory. This is also the default memory system of Table 2.
    #[must_use]
    pub fn mem_400() -> Self {
        MemoryHierarchyConfig {
            memory_latency: 400,
            ..Self::base("MEM-400")
        }
    }

    /// Table 1, row `MEM-1000`: 32 KB L1, 512 KB L2 (11 cycles), 1000-cycle
    /// memory.
    #[must_use]
    pub fn mem_1000() -> Self {
        MemoryHierarchyConfig {
            memory_latency: 1000,
            ..Self::base("MEM-1000")
        }
    }

    /// All six Table 1 presets in row order.
    #[must_use]
    pub fn table1_presets() -> Vec<MemoryHierarchyConfig> {
        vec![
            Self::l1_2(),
            Self::l2_11(),
            Self::l2_21(),
            Self::mem_100(),
            Self::mem_400(),
            Self::mem_1000(),
        ]
    }

    /// The default memory system of Tables 2/3 (identical to `MEM-400` with
    /// a 512 KB L2).
    #[must_use]
    pub fn paper_default() -> Self {
        Self::mem_400()
    }

    /// Returns a copy with the given L2 capacity in kilobytes (used by the
    /// cache-size sweep of Figures 11 and 12).
    #[must_use]
    pub fn with_l2_kb(mut self, kb: usize) -> Self {
        self.l2_size = Some(kb * Self::KB);
        self.l2_perfect = false;
        self.name = format!("{}-L2-{}KB", self.name, kb);
        self
    }

    /// Validates sizes and latencies.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated constraint:
    /// latencies must be positive and non-decreasing down the hierarchy, the
    /// line size must be a power of two of at least 2 bytes, and cache sizes
    /// must be a multiple of `line_size * assoc` that gives a power-of-two
    /// number of sets (the tag arrays index sets with a mask).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.l1_latency == 0 {
            return Err(ConfigError::new("l1_latency", "must be positive"));
        }
        if self.l2_latency < self.l1_latency {
            return Err(ConfigError::new(
                "l2_latency",
                "must be at least the L1 latency",
            ));
        }
        if !self.l2_perfect && self.memory_latency < self.l2_latency {
            return Err(ConfigError::new(
                "memory_latency",
                "must be at least the L2 latency",
            ));
        }
        if !self.line_size.is_power_of_two() || self.line_size < 2 {
            return Err(ConfigError::new(
                "line_size",
                "must be a power of two of at least 2 bytes",
            ));
        }
        for (field, size, assoc) in [
            ("l1_size", self.l1_size, self.l1_assoc),
            ("l2_size", self.l2_size, self.l2_assoc),
        ] {
            if let Some(size) = size {
                if assoc == 0 {
                    return Err(ConfigError::new(field, "associativity must be positive"));
                }
                if size == 0 || size % (self.line_size * assoc) != 0 {
                    return Err(ConfigError::new(
                        field,
                        "must be a positive multiple of line_size * associativity",
                    ));
                }
                if !(size / (self.line_size * assoc)).is_power_of_two() {
                    return Err(ConfigError::new(
                        field,
                        "must give a power-of-two number of sets",
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Default for MemoryHierarchyConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Front-end and commit widths shared by every core model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WidthConfig {
    /// Instructions fetched per cycle.
    pub fetch: usize,
    /// Instructions decoded/renamed per cycle.
    pub decode: usize,
    /// Instructions issued to functional units per cycle.
    pub issue: usize,
    /// Instructions committed per cycle.
    pub commit: usize,
}

impl WidthConfig {
    /// The 4-wide machine of the paper.
    #[must_use]
    pub fn four_wide() -> Self {
        WidthConfig {
            fetch: 4,
            decode: 4,
            issue: 4,
            commit: 4,
        }
    }

    /// Validates that every width is positive.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the zero width.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (name, w) in [
            ("width.fetch", self.fetch),
            ("width.decode", self.decode),
            ("width.issue", self.issue),
            ("width.commit", self.commit),
        ] {
            if w == 0 {
                return Err(ConfigError::new(name, "must be positive"));
            }
        }
        Ok(())
    }
}

impl Default for WidthConfig {
    fn default() -> Self {
        Self::four_wide()
    }
}

/// Misprediction recovery penalty (front-end refill) in cycles, applied
/// after a mispredicted branch resolves.
pub const DEFAULT_MISPREDICT_PENALTY: u64 = 8;

/// Configuration of an R10000-style out-of-order baseline core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineConfig {
    /// Human-readable name ("R10-64", "R10-256", …).
    pub name: String,
    /// Reorder-buffer capacity in instructions.
    pub rob_capacity: usize,
    /// Integer issue-queue capacity.
    pub int_iq_capacity: usize,
    /// Floating-point issue-queue capacity.
    pub fp_iq_capacity: usize,
    /// Issue-queue scheduling policy.
    pub sched: SchedPolicy,
    /// Load/store queue capacity.
    pub lsq_capacity: usize,
    /// Number of global memory ports.
    pub memory_ports: usize,
    /// Pipeline widths.
    pub widths: WidthConfig,
    /// Functional-unit pools.
    pub fu: FuConfig,
    /// Front-end refill penalty after a mispredicted branch resolves.
    pub mispredict_penalty: u64,
    /// Collect the decode→issue distance histogram (Figure 3).
    pub collect_issue_histogram: bool,
}

impl BaselineConfig {
    /// The `R10-64` baseline of Figure 9: 64-entry ROB, 40-entry issue
    /// queues — identical to the default Cache Processor.
    #[must_use]
    pub fn r10_64() -> Self {
        BaselineConfig {
            name: "R10-64".to_owned(),
            rob_capacity: 64,
            int_iq_capacity: 40,
            fp_iq_capacity: 40,
            sched: SchedPolicy::OutOfOrder,
            lsq_capacity: 512,
            memory_ports: 2,
            widths: WidthConfig::four_wide(),
            fu: FuConfig::paper_default(),
            mispredict_penalty: DEFAULT_MISPREDICT_PENALTY,
            collect_issue_histogram: false,
        }
    }

    /// The `R10-256` baseline of Figure 9: 256-entry ROB, 160-entry issue
    /// queues.
    #[must_use]
    pub fn r10_256() -> Self {
        BaselineConfig {
            name: "R10-256".to_owned(),
            rob_capacity: 256,
            int_iq_capacity: 160,
            fp_iq_capacity: 160,
            ..Self::r10_64()
        }
    }

    /// The `R10-768` configuration mentioned in Section 4.2 (a very large
    /// conventional out-of-order core).
    #[must_use]
    pub fn r10_768() -> Self {
        BaselineConfig {
            name: "R10-768".to_owned(),
            rob_capacity: 768,
            int_iq_capacity: 512,
            fp_iq_capacity: 512,
            ..Self::r10_64()
        }
    }

    /// The idealised out-of-order core of Section 2 used for Figures 1
    /// and 2: every resource is sized so that only the ROB can stall the
    /// machine, so the issue queues and LSQ track the window size.
    #[must_use]
    pub fn idealized(window: usize) -> Self {
        BaselineConfig {
            name: format!("IDEAL-{window}"),
            rob_capacity: window,
            int_iq_capacity: window,
            fp_iq_capacity: window,
            lsq_capacity: window.max(64),
            fu: FuConfig::unlimited(),
            memory_ports: 4,
            ..Self::r10_64()
        }
    }

    /// The effectively unbounded core used for the execution-locality
    /// characterisation of Figure 3 (unlimited processor, 400-cycle memory).
    #[must_use]
    pub fn unbounded() -> Self {
        let mut cfg = Self::idealized(1 << 16);
        cfg.name = "UNBOUNDED".to_owned();
        cfg.collect_issue_histogram = true;
        cfg
    }

    /// The window sizes swept in Figures 1 and 2.
    #[must_use]
    pub fn figure1_window_sizes() -> Vec<usize> {
        vec![32, 48, 64, 128, 256, 512, 1024, 2048, 4096]
    }

    /// Validates capacities and widths.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.rob_capacity == 0 {
            return Err(ConfigError::new("rob_capacity", "must be positive"));
        }
        if self.int_iq_capacity == 0 || self.fp_iq_capacity == 0 {
            return Err(ConfigError::new(
                "iq_capacity",
                "issue queues must be non-empty",
            ));
        }
        if self.lsq_capacity == 0 {
            return Err(ConfigError::new("lsq_capacity", "must be positive"));
        }
        if self.memory_ports == 0 {
            return Err(ConfigError::new("memory_ports", "must be positive"));
        }
        self.widths.validate()?;
        self.fu.validate()?;
        Ok(())
    }
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self::r10_64()
    }
}

/// Configuration of the Cache Processor of the D-KIP (Table 2, first block).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheProcessorConfig {
    /// Aging-ROB capacity (Table 2: 64 entries).
    pub rob_capacity: usize,
    /// Aging-ROB timer in cycles (Table 2: 16 cycles): the delay between an
    /// instruction entering the ROB and reaching the Analyze stage.
    pub rob_timer: u64,
    /// Integer issue-queue capacity (Table 3 default: 40).
    pub int_iq_capacity: usize,
    /// Floating-point issue-queue capacity (Table 3 default: 40).
    pub fp_iq_capacity: usize,
    /// Scheduling policy of the Cache Processor queues (Table 3 default:
    /// out of order).
    pub sched: SchedPolicy,
    /// Pipeline widths (fetch/decode/analyze width 4).
    pub widths: WidthConfig,
    /// Functional-unit pools.
    pub fu: FuConfig,
    /// Front-end refill penalty after a mispredicted branch resolves in the
    /// Cache Processor.
    pub mispredict_penalty: u64,
}

impl CacheProcessorConfig {
    /// The Table 2 / Table 3 default Cache Processor.
    #[must_use]
    pub fn paper_default() -> Self {
        CacheProcessorConfig {
            rob_capacity: 64,
            rob_timer: 16,
            int_iq_capacity: 40,
            fp_iq_capacity: 40,
            sched: SchedPolicy::OutOfOrder,
            widths: WidthConfig::four_wide(),
            fu: FuConfig::paper_default(),
            mispredict_penalty: DEFAULT_MISPREDICT_PENALTY,
        }
    }

    /// Validates the Aging-ROB sizing rule from the paper: the ROB capacity
    /// must hold at least `rob_timer * commit_width` instructions so that
    /// instructions age for the full timer before analysis.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.rob_capacity == 0 {
            return Err(ConfigError::new(
                "cache_processor.rob_capacity",
                "must be positive",
            ));
        }
        if self.rob_timer == 0 {
            return Err(ConfigError::new(
                "cache_processor.rob_timer",
                "must be positive",
            ));
        }
        if self.rob_capacity < self.rob_timer as usize * self.widths.commit {
            return Err(ConfigError::new(
                "cache_processor.rob_capacity",
                "must be at least rob_timer * commit width (Aging-ROB sizing rule)",
            ));
        }
        if self.int_iq_capacity == 0 || self.fp_iq_capacity == 0 {
            return Err(ConfigError::new(
                "cache_processor.iq_capacity",
                "issue queues must be non-empty",
            ));
        }
        self.widths.validate()?;
        self.fu.validate()?;
        Ok(())
    }
}

impl Default for CacheProcessorConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Configuration of one Memory Processor (Table 2, Future File architecture).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryProcessorConfig {
    /// Reservation-station / queue capacity (Table 3 default: 20).
    pub queue_capacity: usize,
    /// Scheduling policy (Table 3 default: in order).
    pub sched: SchedPolicy,
    /// Decode/insertion width (Table 2: 4).
    pub decode_width: usize,
    /// Functional-unit pools available to this Memory Processor.
    pub fu: FuConfig,
}

impl MemoryProcessorConfig {
    /// The Table 2 / Table 3 default Memory Processor (in-order, 20-entry
    /// queue).
    #[must_use]
    pub fn paper_default() -> Self {
        MemoryProcessorConfig {
            queue_capacity: 20,
            sched: SchedPolicy::InOrder,
            decode_width: 4,
            fu: FuConfig::paper_default(),
        }
    }

    /// Validates capacities.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.queue_capacity == 0 {
            return Err(ConfigError::new(
                "memory_processor.queue_capacity",
                "must be positive",
            ));
        }
        if self.decode_width == 0 {
            return Err(ConfigError::new(
                "memory_processor.decode_width",
                "must be positive",
            ));
        }
        self.fu.validate()?;
        Ok(())
    }
}

impl Default for MemoryProcessorConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Configuration of one Low-Locality Instruction Buffer and its associated
/// Low-Locality Register File (Table 2, LLIB block).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LlibConfig {
    /// Number of instruction entries (Table 2: 2048 per LLIB).
    pub capacity: usize,
    /// Instructions inserted per cycle (Table 2: 4).
    pub insertion_rate: usize,
    /// Instructions extracted per cycle (Table 2: 4).
    pub extraction_rate: usize,
    /// Number of LLRF banks (Table 2: 8).
    pub llrf_banks: usize,
    /// Registers per LLRF bank (Table 2: up to 256).
    pub llrf_regs_per_bank: usize,
}

impl LlibConfig {
    /// The Table 2 default LLIB: 2048 entries, 4-wide insertion/extraction,
    /// 8 LLRF banks of 256 registers.
    #[must_use]
    pub fn paper_default() -> Self {
        LlibConfig {
            capacity: 2048,
            insertion_rate: 4,
            extraction_rate: 4,
            llrf_banks: 8,
            llrf_regs_per_bank: 256,
        }
    }

    /// Total LLRF register capacity across banks.
    #[must_use]
    pub fn llrf_capacity(&self) -> usize {
        self.llrf_banks * self.llrf_regs_per_bank
    }

    /// Validates capacities and rates.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first invalid field. The LLRF
    /// banking scheme of the paper requires insertion and extraction to
    /// operate on disjoint groups of banks, so at least
    /// `insertion_rate + extraction_rate` banks are required.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.capacity == 0 {
            return Err(ConfigError::new("llib.capacity", "must be positive"));
        }
        if self.insertion_rate == 0 || self.extraction_rate == 0 {
            return Err(ConfigError::new(
                "llib.rates",
                "insertion and extraction rates must be positive",
            ));
        }
        if self.llrf_banks == 0 || self.llrf_regs_per_bank == 0 {
            return Err(ConfigError::new(
                "llib.llrf",
                "LLRF banks and entries must be positive",
            ));
        }
        if self.llrf_banks < self.insertion_rate + self.extraction_rate {
            return Err(ConfigError::new(
                "llib.llrf_banks",
                "needs at least insertion_rate + extraction_rate banks so reads and writes hit disjoint banks",
            ));
        }
        Ok(())
    }
}

impl Default for LlibConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Configuration of the Address Processor (Table 2, Address Processor block).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressProcessorConfig {
    /// Load/store queue capacity (Table 2: 512 entries).
    pub lsq_capacity: usize,
    /// Global read/write memory ports (Table 2: 2).
    pub memory_ports: usize,
    /// Capacity of each long-latency load-value FIFO (one per LLIB).
    pub load_value_fifo_capacity: usize,
}

impl AddressProcessorConfig {
    /// The Table 2 default Address Processor.
    #[must_use]
    pub fn paper_default() -> Self {
        AddressProcessorConfig {
            lsq_capacity: 512,
            memory_ports: 2,
            load_value_fifo_capacity: 512,
        }
    }

    /// Validates capacities.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.lsq_capacity == 0 {
            return Err(ConfigError::new(
                "address_processor.lsq_capacity",
                "must be positive",
            ));
        }
        if self.memory_ports == 0 {
            return Err(ConfigError::new(
                "address_processor.memory_ports",
                "must be positive",
            ));
        }
        if self.load_value_fifo_capacity == 0 {
            return Err(ConfigError::new(
                "address_processor.load_value_fifo_capacity",
                "must be positive",
            ));
        }
        Ok(())
    }
}

impl Default for AddressProcessorConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Configuration of the Checkpointing Stack used for recovery past the
/// Cache Processor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Number of checkpoint entries in the stack.
    pub stack_entries: usize,
    /// A checkpoint is taken at Analyze at least every this many analysed
    /// instructions while low-locality code is in flight.
    pub interval_instrs: u64,
    /// Additional recovery penalty (cycles) when restoring a checkpoint.
    pub recovery_penalty: u64,
}

impl CheckpointConfig {
    /// Default checkpointing: 8 checkpoints, one at least every 256 analysed
    /// instructions, 16-cycle restore penalty.
    #[must_use]
    pub fn paper_default() -> Self {
        CheckpointConfig {
            stack_entries: 8,
            interval_instrs: 256,
            recovery_penalty: 16,
        }
    }

    /// Validates capacities.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.stack_entries == 0 {
            return Err(ConfigError::new(
                "checkpoint.stack_entries",
                "must be positive",
            ));
        }
        if self.interval_instrs == 0 {
            return Err(ConfigError::new(
                "checkpoint.interval_instrs",
                "must be positive",
            ));
        }
        Ok(())
    }
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Full configuration of the Decoupled KILO-Instruction Processor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DkipConfig {
    /// Human-readable name ("D-KIP-2048", "OOO80-OOO40", …).
    pub name: String,
    /// The Cache Processor.
    pub cache_processor: CacheProcessorConfig,
    /// The (shared) Memory Processor configuration; one integer and one
    /// floating-point Memory Processor are instantiated from it.
    pub memory_processor: MemoryProcessorConfig,
    /// The LLIB/LLRF configuration; one integer and one floating-point LLIB
    /// are instantiated from it.
    pub llib: LlibConfig,
    /// The Address Processor.
    pub address_processor: AddressProcessorConfig,
    /// The Checkpointing Stack.
    pub checkpoint: CheckpointConfig,
}

impl DkipConfig {
    /// The `D-KIP-2048` configuration of Figure 9 with the Table 2/3
    /// defaults: out-of-order 40-entry Cache Processor queues, in-order
    /// 20-entry Memory Processors and 2048-entry LLIBs.
    #[must_use]
    pub fn paper_default() -> Self {
        DkipConfig {
            name: "D-KIP-2048".to_owned(),
            cache_processor: CacheProcessorConfig::paper_default(),
            memory_processor: MemoryProcessorConfig::paper_default(),
            llib: LlibConfig::paper_default(),
            address_processor: AddressProcessorConfig::paper_default(),
            checkpoint: CheckpointConfig::paper_default(),
        }
    }

    /// Returns a copy with the Cache Processor scheduling policy and issue
    /// queue size set (the `INO` / `OOO-XX` points of Figure 10).
    #[must_use]
    pub fn with_cp(mut self, sched: SchedPolicy, iq_size: usize) -> Self {
        self.cache_processor.sched = sched;
        self.cache_processor.int_iq_capacity = iq_size;
        self.cache_processor.fp_iq_capacity = iq_size;
        self.name = format!("CP-{}-{}", sched.label(), iq_size);
        self
    }

    /// Returns a copy with the Memory Processor scheduling policy and queue
    /// size set (the `MP INO` / `MP OOO-XX` series of Figure 10).
    #[must_use]
    pub fn with_mp(mut self, sched: SchedPolicy, queue_size: usize) -> Self {
        self.memory_processor.sched = sched;
        self.memory_processor.queue_capacity = queue_size;
        self.name = format!("{}/MP-{}-{}", self.name, sched.label(), queue_size);
        self
    }

    /// Returns a copy with both LLIBs resized.
    #[must_use]
    pub fn with_llib_capacity(mut self, capacity: usize) -> Self {
        self.llib.capacity = capacity;
        self.name = format!("D-KIP-{capacity}");
        self
    }

    /// Validates every component configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found in any component.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.cache_processor.validate()?;
        self.memory_processor.validate()?;
        self.llib.validate()?;
        self.address_processor.validate()?;
        self.checkpoint.validate()?;
        Ok(())
    }
}

impl Default for DkipConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Configuration of the traditional KILO-instruction processor baseline
/// (`KILO-1024` in Figure 9): a pseudo-ROB plus an out-of-order Slow-Lane
/// Instruction Queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KiloConfig {
    /// Human-readable name.
    pub name: String,
    /// Pseudo-ROB capacity (64 in the paper).
    pub pseudo_rob_capacity: usize,
    /// Pseudo-ROB timer, analogous to the Aging-ROB timer.
    pub pseudo_rob_timer: u64,
    /// Slow-Lane Instruction Queue capacity (1024 in the paper).
    pub sliq_capacity: usize,
    /// Main issue-queue capacity (72 in the paper).
    pub iq_capacity: usize,
    /// Load/store queue capacity (512, identical to the other models).
    pub lsq_capacity: usize,
    /// Global memory ports.
    pub memory_ports: usize,
    /// Pipeline widths.
    pub widths: WidthConfig,
    /// Functional units.
    pub fu: FuConfig,
    /// Front-end refill penalty after a mispredicted branch resolves.
    pub mispredict_penalty: u64,
    /// Checkpointing for recovery of SLIQ instructions.
    pub checkpoint: CheckpointConfig,
}

impl KiloConfig {
    /// The `KILO-1024` configuration of Figure 9: 64-entry pseudo-ROB,
    /// 1024-entry out-of-order SLIQ, 72-entry issue queues.
    #[must_use]
    pub fn kilo_1024() -> Self {
        KiloConfig {
            name: "KILO-1024".to_owned(),
            pseudo_rob_capacity: 64,
            pseudo_rob_timer: 16,
            sliq_capacity: 1024,
            iq_capacity: 72,
            lsq_capacity: 512,
            memory_ports: 2,
            widths: WidthConfig::four_wide(),
            fu: FuConfig::paper_default(),
            mispredict_penalty: DEFAULT_MISPREDICT_PENALTY,
            checkpoint: CheckpointConfig::paper_default(),
        }
    }

    /// Validates capacities and widths.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.pseudo_rob_capacity == 0 {
            return Err(ConfigError::new(
                "kilo.pseudo_rob_capacity",
                "must be positive",
            ));
        }
        if self.sliq_capacity == 0 {
            return Err(ConfigError::new("kilo.sliq_capacity", "must be positive"));
        }
        if self.iq_capacity == 0 {
            return Err(ConfigError::new("kilo.iq_capacity", "must be positive"));
        }
        if self.lsq_capacity == 0 {
            return Err(ConfigError::new("kilo.lsq_capacity", "must be positive"));
        }
        if self.memory_ports == 0 {
            return Err(ConfigError::new("kilo.memory_ports", "must be positive"));
        }
        self.widths.validate()?;
        self.fu.validate()?;
        self.checkpoint.validate()?;
        Ok(())
    }
}

impl Default for KiloConfig {
    fn default() -> Self {
        Self::kilo_1024()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_presets_match_the_paper() {
        let presets = MemoryHierarchyConfig::table1_presets();
        assert_eq!(presets.len(), 6);

        let l1 = &presets[0];
        assert_eq!(l1.name, "L1-2");
        assert_eq!(l1.l1_latency, 2);
        assert!(l1.l1_size.is_none(), "L1-2 has a perfect L1");

        let l2_11 = &presets[1];
        assert_eq!(l2_11.l1_size, Some(32 * 1024));
        assert_eq!(l2_11.l2_latency, 11);
        assert!(l2_11.l2_perfect);

        let l2_21 = &presets[2];
        assert_eq!(l2_21.l2_latency, 21);

        for (idx, latency) in [(3usize, 100u64), (4, 400), (5, 1000)] {
            let cfg = &presets[idx];
            assert_eq!(cfg.memory_latency, latency);
            assert_eq!(cfg.l2_size, Some(512 * 1024));
            assert_eq!(cfg.l2_latency, 11);
            assert!(!cfg.l2_perfect);
        }
    }

    #[test]
    fn table2_defaults_match_the_paper() {
        let dkip = DkipConfig::paper_default();
        assert_eq!(dkip.cache_processor.rob_capacity, 64);
        assert_eq!(dkip.cache_processor.rob_timer, 16);
        assert_eq!(dkip.cache_processor.widths.fetch, 4);
        assert_eq!(dkip.cache_processor.fu.int_alu, 4);
        assert_eq!(dkip.cache_processor.fu.fp_mul_div, 1);
        assert_eq!(dkip.llib.capacity, 2048);
        assert_eq!(dkip.llib.llrf_banks, 8);
        assert_eq!(dkip.llib.llrf_regs_per_bank, 256);
        assert_eq!(dkip.address_processor.lsq_capacity, 512);
        assert_eq!(dkip.address_processor.memory_ports, 2);
        assert_eq!(dkip.memory_processor.decode_width, 4);
        dkip.validate().expect("paper default must validate");
    }

    #[test]
    fn table3_defaults_match_the_paper() {
        let dkip = DkipConfig::paper_default();
        assert_eq!(dkip.cache_processor.int_iq_capacity, 40);
        assert_eq!(dkip.cache_processor.fp_iq_capacity, 40);
        assert_eq!(dkip.cache_processor.sched, SchedPolicy::OutOfOrder);
        assert_eq!(dkip.memory_processor.queue_capacity, 20);
        assert_eq!(dkip.memory_processor.sched, SchedPolicy::InOrder);
        let mem = MemoryHierarchyConfig::paper_default();
        assert_eq!(mem.l2_size, Some(512 * 1024));
        assert_eq!(mem.memory_latency, 400);
    }

    #[test]
    fn baseline_presets_match_figure9() {
        let r64 = BaselineConfig::r10_64();
        assert_eq!(r64.rob_capacity, 64);
        assert_eq!(r64.int_iq_capacity, 40);
        let r256 = BaselineConfig::r10_256();
        assert_eq!(r256.rob_capacity, 256);
        assert_eq!(r256.int_iq_capacity, 160);
        let kilo = KiloConfig::kilo_1024();
        assert_eq!(kilo.pseudo_rob_capacity, 64);
        assert_eq!(kilo.sliq_capacity, 1024);
        assert_eq!(kilo.iq_capacity, 72);
        r64.validate().unwrap();
        r256.validate().unwrap();
        kilo.validate().unwrap();
    }

    #[test]
    fn figure1_window_sizes_match_the_paper() {
        assert_eq!(
            BaselineConfig::figure1_window_sizes(),
            vec![32, 48, 64, 128, 256, 512, 1024, 2048, 4096]
        );
    }

    #[test]
    fn idealized_core_scales_resources_with_window() {
        let cfg = BaselineConfig::idealized(1024);
        assert_eq!(cfg.rob_capacity, 1024);
        assert_eq!(cfg.int_iq_capacity, 1024);
        assert!(cfg.lsq_capacity >= 64);
        cfg.validate().unwrap();
    }

    #[test]
    fn unbounded_core_collects_histogram() {
        let cfg = BaselineConfig::unbounded();
        assert!(cfg.collect_issue_histogram);
        assert!(cfg.rob_capacity >= 4096);
    }

    #[test]
    fn memory_validation_rejects_bad_sizes() {
        let mut cfg = MemoryHierarchyConfig::mem_400();
        cfg.l2_size = Some(1000); // not a multiple of line*assoc
        assert!(cfg.validate().is_err());

        let mut cfg = MemoryHierarchyConfig::mem_400();
        cfg.line_size = 48;
        assert!(cfg.validate().is_err());

        let mut cfg = MemoryHierarchyConfig::mem_400();
        cfg.memory_latency = 5; // below L2 latency
        assert!(cfg.validate().is_err());

        assert!(MemoryHierarchyConfig::mem_400().validate().is_ok());
        assert!(MemoryHierarchyConfig::l1_2().validate().is_ok());
    }

    #[test]
    fn with_l2_kb_rescales_cache() {
        let cfg = MemoryHierarchyConfig::mem_400().with_l2_kb(4096);
        assert_eq!(cfg.l2_size, Some(4096 * 1024));
        assert!(cfg.validate().is_ok());
        assert!(cfg.name.contains("4096KB"));
    }

    #[test]
    fn dkip_builders_set_policy_and_sizes() {
        let cfg = DkipConfig::paper_default()
            .with_cp(SchedPolicy::OutOfOrder, 80)
            .with_mp(SchedPolicy::OutOfOrder, 40);
        assert_eq!(cfg.cache_processor.int_iq_capacity, 80);
        assert_eq!(cfg.memory_processor.queue_capacity, 40);
        assert_eq!(cfg.memory_processor.sched, SchedPolicy::OutOfOrder);
        assert!(cfg.name.contains("OOO"));
        cfg.validate().unwrap();
    }

    #[test]
    fn aging_rob_sizing_rule_is_enforced() {
        let mut cp = CacheProcessorConfig::paper_default();
        cp.rob_capacity = 16; // below timer * commit width = 64
        let err = cp.validate().unwrap_err();
        assert!(err.field().contains("rob_capacity"));
    }

    #[test]
    fn llib_bank_rule_is_enforced() {
        let mut llib = LlibConfig::paper_default();
        llib.llrf_banks = 4; // insertion (4) + extraction (4) need 8
        assert!(llib.validate().is_err());
        llib.llrf_banks = 8;
        assert!(llib.validate().is_ok());
    }

    #[test]
    fn zero_widths_are_rejected() {
        let mut w = WidthConfig::four_wide();
        w.issue = 0;
        assert!(w.validate().is_err());
    }

    #[test]
    fn fu_validation_rejects_empty_pools() {
        let mut fu = FuConfig::paper_default();
        fu.fp_add = 0;
        assert!(fu.validate().is_err());
        assert!(FuConfig::unlimited().validate().is_ok());
    }

    #[test]
    fn sched_policy_labels() {
        assert_eq!(SchedPolicy::InOrder.label(), "INO");
        assert_eq!(SchedPolicy::OutOfOrder.label(), "OOO");
    }

    #[test]
    fn sample_config_parses_the_knob_syntax() {
        let cfg = SampleConfig::parse("10000:1000:2000").unwrap();
        assert_eq!(
            cfg,
            SampleConfig {
                period: 10_000,
                warmup: 1_000,
                window: 2_000,
            }
        );
        assert_eq!(cfg.skip(), 7_000);
        assert!((cfg.detailed_fraction() - 0.3).abs() < 1e-12);
        assert_eq!(cfg.to_string(), "10000:1000:2000");
        assert_eq!(SampleConfig::parse(&cfg.to_string()).unwrap(), cfg);
        // Whitespace around the fields is tolerated (env-var ergonomics).
        assert_eq!(SampleConfig::parse(" 100 : 0 : 50 ").unwrap().warmup, 0);
    }

    #[test]
    fn sample_config_rejects_malformed_and_infeasible_values() {
        assert!(SampleConfig::parse("").is_err());
        assert!(SampleConfig::parse("100:10").is_err(), "missing field");
        assert!(SampleConfig::parse("100:10:20:30").is_err(), "extra field");
        assert!(SampleConfig::parse("100:ten:20").is_err());
        assert!(SampleConfig::parse("100:0:0").is_err(), "empty window");
        assert!(
            SampleConfig::parse("100:60:50").is_err(),
            "warmup + window exceed the period"
        );
        assert!(SampleConfig::parse("100:50:50").is_ok(), "fully detailed");
    }

    #[test]
    fn sample_default_rate_is_valid() {
        let cfg = SampleConfig::default_rate();
        assert!(cfg.validate().is_ok());
        assert!((cfg.detailed_fraction() - 0.2).abs() < 1e-12);
    }
}

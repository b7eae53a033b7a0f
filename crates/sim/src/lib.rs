//! # bhive-sim
//!
//! The simulated x86-64 machine that plays the role of *hardware* in this
//! reproduction of BHive.
//!
//! The paper measures basic-block throughput on real Ivy Bridge, Haswell
//! and Skylake parts using `ptrace`, `mmap` and hardware performance
//! counters. This crate provides a machine with the same observable
//! interface, so the measurement framework in `bhive-harness` can run the
//! paper's techniques unchanged:
//!
//! * a **functional executor** over a sparse virtual memory that faults on
//!   unmapped pages (the signal the page-mapping monitor intercepts);
//! * a **cycle-level out-of-order timing model** driven by the per-uarch
//!   uop tables of `bhive-uarch` (ports, latencies, fusion, zero idioms,
//!   value-dependent division, subnormal stalls);
//! * **VIPT L1 data and instruction caches** whose misses are observable
//!   through performance counters — mapping every virtual page to one
//!   physical page really does make all accesses hit, and unrolling a
//!   large block really does overflow the L1I;
//! * **performance counters** (core cycles, cache misses, context
//!   switches, misaligned references) and an **OS-noise model** that makes
//!   the paper's clean-trial filtering meaningful.
//!
//! # Example
//!
//! ```
//! use bhive_sim::Machine;
//! use bhive_uarch::Uarch;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let block = bhive_asm::parse_block("add rax, rbx\nimul rcx, rdx")?;
//! let mut machine = Machine::new(Uarch::haswell(), 0 /* rng seed */);
//! machine.reset(0x12345600);
//! let run = machine.run(block.insts(), 16)?; // 16 unrolled copies
//! assert!(run.counters.core_cycles > 0);
//! # Ok(())
//! # }
//! ```

mod cache;
mod counters;
mod exec;
mod machine;
mod mem;
mod noise;
mod state;
mod timing;

pub use cache::Cache;
pub use counters::PerfCounters;
pub use exec::{ExecFault, InstEffects, MemAccess};
pub use machine::{LowerStats, Machine, RunError, RunOutcome, CODE_BASE};
pub use mem::{Memory, PhysPage, SegFault, PAGE_SIZE};
pub use noise::NoiseConfig;
pub use state::{CpuState, Flags, Mxcsr};
pub use timing::{
    CodeLayout, DynInst, NonConvergence, PreparedTrace, SimScratch, StaticPrep, TimingModel,
    TimingResult,
};

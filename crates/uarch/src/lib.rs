//! # bhive-uarch
//!
//! Microarchitecture descriptions for the BHive-rs suite: execution ports,
//! micro-op decomposition recipes, instruction latencies, micro-/macro-fusion
//! rules and cache geometries for the three Intel microarchitectures the
//! paper evaluates (Ivy Bridge, Haswell, Skylake).
//!
//! The tables here follow the methodology of Abel & Reineke's port-mapping
//! work (uops.info), which the paper uses to classify basic blocks: every
//! instruction maps to a list of micro-ops, each with a *port combination*
//! (e.g. `p0156` for a scalar ALU uop on Haswell) and a latency.
//!
//! Two consumers use these tables:
//!
//! * `bhive-sim` — the simulated "hardware" that ground-truth measurements
//!   are taken on;
//! * `bhive-models` — the cost models under validation, which copy these
//!   recipes and then *perturb* them to reproduce each tool's documented
//!   blind spots (llvm-mca's missing zero idioms, IACA's division mix-up,
//!   OSACA's parser gaps).
//!
//! # Example
//!
//! ```
//! use bhive_uarch::{decompose, Uarch};
//! # fn main() -> Result<(), bhive_asm::AsmError> {
//! let haswell = Uarch::haswell();
//! let inst = bhive_asm::parse_inst("add rax, qword ptr [rbx]")?;
//! let recipe = decompose(&inst, haswell);
//! // A load-op instruction is one fused-domain uop but two unfused uops.
//! assert_eq!(recipe.uops.len(), 2);
//! assert_eq!(recipe.frontend_slots, 1);
//! # Ok(())
//! # }
//! ```

mod desc;
mod fusion;
mod overrides;
mod ports;
mod tables;
mod uop;

pub use desc::{CacheParams, Uarch, UarchKind};
pub use fusion::macro_fuses;
pub use overrides::{
    builtin, install_tables, EntryOverride, FittedTables, TableLoadError, TableOverrides,
    FITTED_TABLES_SCHEMA,
};
pub use ports::{Port, PortSet};
pub use tables::{decompose, entry_key, port_vocabulary};
pub use uop::{Recipe, Uop, UopKind, VarLat};

//! Targeted calibration probes.
//!
//! Unlike the application-profile generators in [`crate::gen`], which
//! imitate real instruction mixes, the probe battery is *designed to be
//! invertible*: each probe isolates one (or two) rows of the uarch
//! decomposition tables so that `bhive-learn` can recover that row's
//! latency and port assignment from throughput measurements alone.
//!
//! Three probe families, mirroring the classic `llvm-exegesis` /
//! Agner-Fog methodology:
//!
//! * **Latency chains** — `k` copies of a self-chaining form
//!   (`add rax, rsi`, `pshufd xmm0, xmm0, 0x1b`, …). Each copy depends
//!   on the previous through its destination register, so steady-state
//!   cycles-per-iteration grow as `k · L`; the slope over several `k`
//!   is the row's latency.
//! * **Throughput kernels** — `m ∈ {1..4}` copies with *distinct*
//!   destination registers. Widening the kernel shifts the bottleneck
//!   from the dependency chain toward port pressure, which
//!   discriminates between candidate port assignments.
//! * **Mix kernels** — two entries interleaved (target in register
//!   slots 0–1, partner in slots 2–3). Entries that are
//!   indistinguishable in isolation (same throughput on disjoint
//!   ports) separate once they compete with a partner of known
//!   pressure.
//!
//! Every generated instruction resolves to its entry's
//! `bhive_uarch::entry_key`, and the battery is a pure function of its
//! arguments — no RNG, no ambient state — so calibration runs are
//! deterministic and cache-stable.

use bhive_asm::{parse_block, BasicBlock};

/// One calibratable row of the decomposition tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeEntry {
    /// The `bhive_uarch::entry_key` this entry targets.
    pub key: &'static str,
    /// Whether a self-chaining form exists (output feeds the next
    /// copy's input through the same register), enabling latency
    /// chains. Flag-writers and cross-file moves are not chainable.
    pub chainable: bool,
    /// Requires AVX2/FMA support (skipped on Ivy Bridge).
    pub needs_avx2: bool,
}

/// All rows the probe battery knows how to exercise, in a fixed order.
pub const PROBE_ENTRIES: &[ProbeEntry] = &[
    entry("alu", true, false),
    entry("bswap", true, false),
    entry("lea.simple", true, false),
    entry("lea.complex", true, false),
    entry("shift", true, false),
    entry("mul", true, false),
    entry("bitcount", true, false),
    entry("setcc", false, false),
    entry("fp.add", true, false),
    entry("fp.mul", true, false),
    entry("fp.fma", true, true),
    entry("fp.minmax", true, false),
    entry("fp.cmp", false, false),
    entry("vec.logic", true, false),
    entry("vec.int", true, false),
    entry("vec.mul", true, false),
    entry("vec.shift", true, false),
    entry("vec.shuffle", true, false),
    entry("vec.mask", false, false),
    entry("movd.to_vec", false, false),
    entry("movd.from_vec", false, false),
];

const fn entry(key: &'static str, chainable: bool, needs_avx2: bool) -> ProbeEntry {
    ProbeEntry {
        key,
        chainable,
        needs_avx2,
    }
}

/// Looks up a probe entry by key.
pub fn probe_entry(key: &str) -> Option<&'static ProbeEntry> {
    PROBE_ENTRIES.iter().find(|e| e.key == key)
}

/// What a probe is designed to expose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeKind {
    /// Serialized dependency chain of `len` copies.
    Latency { key: &'static str, len: usize },
    /// `width` independent copies with distinct destinations.
    Throughput { key: &'static str, width: usize },
    /// Target (slots 0–1) interleaved with a partner (slots 2–3).
    Mix {
        target: &'static str,
        partner: &'static str,
    },
}

/// One targeted kernel, parsed and ready to profile.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Stable identifier, e.g. `lat/alu/8` or `mix/fp.add/shift`.
    pub id: String,
    /// Every entry key the probe's instructions resolve to, sorted and
    /// deduplicated (`setcc` kernels also contain an `alu` flag
    /// producer, so their key set is `["alu", "setcc"]`).
    pub keys: Vec<&'static str>,
    /// The probe's design.
    pub kind: ProbeKind,
    /// The kernel itself.
    pub block: BasicBlock,
}

/// A deterministic set of probes for one target machine.
#[derive(Debug, Clone)]
pub struct ProbeBattery {
    /// Probes in generation order (stable across runs).
    pub probes: Vec<Probe>,
}

impl ProbeBattery {
    /// Total number of probes.
    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// Whether the battery is empty.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }
}

// Destination register slots. Slots 0–1 belong to the mix target,
// slots 2–3 to the partner, so interleaved kernels never alias.
const GPR64: [&str; 4] = ["rax", "rbx", "rcx", "rdx"];
const GPR32: [&str; 4] = ["eax", "ebx", "ecx", "edx"];
const GPR8: [&str; 4] = ["al", "bl", "cl", "dl"];
const XMM: [&str; 4] = ["xmm0", "xmm1", "xmm2", "xmm3"];
// Read-only sources, disjoint from every destination slot.

/// The throughput-form instruction for `key` writing destination slot
/// `slot` (0–3). Sources are the read-only registers `rsi`/`rdi`/`esi`
/// and `xmm4`/`xmm5`, so distinct slots never depend on each other.
fn inst_text(key: &str, slot: usize) -> String {
    let g = GPR64[slot];
    let e = GPR32[slot];
    let b = GPR8[slot];
    let x = XMM[slot];
    match key {
        "alu" => format!("add {g}, rsi"),
        "bswap" => format!("bswap {g}"),
        "lea.simple" => format!("lea {g}, [rsi + 8]"),
        "lea.complex" => format!("lea {g}, [rsi + 4*rdi + 8]"),
        "shift" => format!("shl {g}, 3"),
        "mul" => format!("imul {g}, rsi"),
        "bitcount" => format!("popcnt {g}, rsi"),
        "setcc" => format!("sete {b}"),
        "fp.add" => format!("addps {x}, xmm4"),
        "fp.mul" => format!("mulps {x}, xmm4"),
        "fp.fma" => format!("vfmadd231ps {x}, xmm4, xmm5"),
        "fp.minmax" => format!("minps {x}, xmm4"),
        "fp.cmp" => "ucomiss xmm4, xmm5".to_string(),
        "vec.logic" => format!("orps {x}, xmm4"),
        "vec.int" => format!("paddd {x}, xmm4"),
        "vec.mul" => format!("pmullw {x}, xmm4"),
        "vec.shift" => format!("pslld {x}, 3"),
        "vec.shuffle" => format!("pshufd {x}, xmm4, 0x1b"),
        "vec.mask" => format!("pmovmskb {e}, xmm4"),
        "movd.to_vec" => format!("movd {x}, esi"),
        "movd.from_vec" => format!("movd {e}, xmm4"),
        other => panic!("unknown probe entry key {other:?}"),
    }
}

/// The self-chaining instruction for `key` (destination slot 0 feeding
/// itself), or `None` for non-chainable entries.
fn chain_text(key: &str) -> Option<&'static str> {
    Some(match key {
        "alu" => "add rax, rsi",
        "bswap" => "bswap rax",
        "lea.simple" => "lea rax, [rax + 8]",
        "lea.complex" => "lea rax, [rax + 4*rsi + 8]",
        "shift" => "shl rax, 3",
        "mul" => "imul rax, rsi",
        "bitcount" => "popcnt rax, rax",
        "fp.add" => "addps xmm0, xmm4",
        "fp.mul" => "mulps xmm0, xmm4",
        "fp.fma" => "vfmadd231ps xmm0, xmm4, xmm5",
        "fp.minmax" => "minps xmm0, xmm4",
        "vec.logic" => "orps xmm0, xmm4",
        "vec.int" => "paddd xmm0, xmm4",
        "vec.mul" => "pmullw xmm0, xmm4",
        "vec.shift" => "pslld xmm0, 3",
        "vec.shuffle" => "pshufd xmm0, xmm0, 0x1b",
        _ => return None,
    })
}

/// Flag-producing prologue a kernel needs before its first copy, plus
/// the entry key that prologue itself resolves to.
fn prologue(key: &str) -> Option<(&'static str, &'static str)> {
    match key {
        "setcc" => Some(("cmp rsi, rdi", "alu")),
        _ => None,
    }
}

/// Chain lengths probed per chainable entry.
fn chain_lengths(quick: bool) -> &'static [usize] {
    if quick {
        &[4, 8]
    } else {
        &[4, 8, 12, 16]
    }
}

/// Kernel widths probed per entry.
fn kernel_widths(quick: bool) -> &'static [usize] {
    if quick {
        &[1, 3]
    } else {
        &[1, 2, 3, 4]
    }
}

/// Partner entries for mix kernels: spread across distinct port
/// groups (p0/p6 shifts, p1 multiplies, p5 shuffles) so that port
/// competition, not just chain latency, separates candidates.
fn mix_partners(quick: bool) -> &'static [&'static str] {
    if quick {
        &["shift", "vec.shuffle"]
    } else {
        &["shift", "mul", "vec.shuffle"]
    }
}

fn parse_probe(text: &str, id: &str) -> BasicBlock {
    match parse_block(text) {
        Ok(block) => block,
        Err(err) => panic!("probe {id} failed to parse: {err}\n{text}"),
    }
}

fn sorted_keys(mut keys: Vec<&'static str>) -> Vec<&'static str> {
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Generates the full probe battery for a machine.
///
/// `avx2` gates FMA probes (Ivy Bridge has none); `quick` shrinks the
/// battery for smoke tests (fewer chain lengths, kernel widths, and
/// mix partners) while keeping every entry represented. The result is
/// a pure function of `(avx2, quick)`.
pub fn probe_battery(avx2: bool, quick: bool) -> ProbeBattery {
    let entries: Vec<&ProbeEntry> = PROBE_ENTRIES
        .iter()
        .filter(|e| avx2 || !e.needs_avx2)
        .collect();
    let mut probes = Vec::new();

    // Latency chains.
    for entry in entries.iter().filter(|e| e.chainable) {
        let link = chain_text(entry.key).expect("chainable entries have a chain form");
        for &len in chain_lengths(quick) {
            let id = format!("lat/{}/{len}", entry.key);
            let text = vec![link; len].join("\n");
            probes.push(Probe {
                block: parse_probe(&text, &id),
                id,
                keys: vec![entry.key],
                kind: ProbeKind::Latency {
                    key: entry.key,
                    len,
                },
            });
        }
    }

    // Throughput kernels.
    for entry in &entries {
        for &width in kernel_widths(quick) {
            let id = format!("tp/{}/{width}", entry.key);
            let mut lines = Vec::new();
            let mut keys = vec![entry.key];
            if let Some((pro, pro_key)) = prologue(entry.key) {
                lines.push(pro.to_string());
                keys.push(pro_key);
            }
            for slot in 0..width {
                lines.push(inst_text(entry.key, slot));
            }
            let text = lines.join("\n");
            probes.push(Probe {
                block: parse_probe(&text, &id),
                id,
                keys: sorted_keys(keys),
                kind: ProbeKind::Throughput {
                    key: entry.key,
                    width,
                },
            });
        }
    }

    // Mix kernels: target in slots 0–1, partner in slots 2–3.
    for entry in &entries {
        for &partner in mix_partners(quick) {
            if partner == entry.key {
                continue;
            }
            let id = format!("mix/{}/{partner}", entry.key);
            let mut lines = Vec::new();
            let mut keys = vec![entry.key, partner];
            if let Some((pro, pro_key)) = prologue(entry.key) {
                lines.push(pro.to_string());
                keys.push(pro_key);
            }
            for slot in 0..2 {
                lines.push(inst_text(entry.key, slot));
                lines.push(inst_text(partner, slot + 2));
            }
            let text = lines.join("\n");
            probes.push(Probe {
                block: parse_probe(&text, &id),
                id,
                keys: sorted_keys(keys),
                kind: ProbeKind::Mix {
                    target: entry.key,
                    partner,
                },
            });
        }
    }

    ProbeBattery { probes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn battery_is_deterministic_and_complete() {
        let a = probe_battery(true, false);
        let b = probe_battery(true, false);
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.probes.iter().zip(&b.probes) {
            assert_eq!(pa.id, pb.id);
            assert_eq!(pa.keys, pb.keys);
            assert_eq!(
                pa.block.insts().len(),
                pb.block.insts().len(),
                "probe {} differs between runs",
                pa.id
            );
        }
        // Every entry has at least one throughput kernel; chainable
        // entries also have latency chains.
        let covered: BTreeSet<&str> = a.probes.iter().flat_map(|p| p.keys.clone()).collect();
        for entry in PROBE_ENTRIES {
            assert!(covered.contains(entry.key), "{} not probed", entry.key);
            if entry.chainable {
                assert!(
                    a.probes.iter().any(
                        |p| matches!(p.kind, ProbeKind::Latency { key, .. } if key == entry.key)
                    ),
                    "{} has no latency chain",
                    entry.key
                );
            }
        }
        // Probe ids are unique.
        let ids: BTreeSet<&str> = a.probes.iter().map(|p| p.id.as_str()).collect();
        assert_eq!(ids.len(), a.probes.len());
    }

    #[test]
    fn avx2_gating_removes_fma_only() {
        let with = probe_battery(true, false);
        let without = probe_battery(false, false);
        let missing: Vec<&str> = with
            .probes
            .iter()
            .map(|p| p.id.as_str())
            .filter(|id| !without.probes.iter().any(|p| p.id == *id))
            .collect();
        assert!(!missing.is_empty());
        assert!(missing.iter().all(|id| id.contains("fp.fma")));
    }

    #[test]
    fn quick_battery_still_covers_every_entry() {
        let quick = probe_battery(true, true);
        let covered: BTreeSet<&str> = quick.probes.iter().flat_map(|p| p.keys.clone()).collect();
        for entry in PROBE_ENTRIES {
            assert!(covered.contains(entry.key), "{} not in quick", entry.key);
        }
        assert!(quick.len() < probe_battery(true, false).len());
    }

    #[test]
    fn every_probe_inst_resolves_to_a_declared_key() {
        for quick in [false, true] {
            let battery = probe_battery(true, quick);
            for probe in &battery.probes {
                let mut seen = BTreeSet::new();
                for inst in probe.block.insts() {
                    let key = bhive_uarch::entry_key(inst)
                        .unwrap_or_else(|| panic!("probe {}: {inst} has no entry key", probe.id));
                    assert!(
                        probe.keys.contains(&key),
                        "probe {}: {inst} resolves to {key}, keys are {:?}",
                        probe.id,
                        probe.keys
                    );
                    seen.insert(key);
                }
                // Declared keys are exact, not a superset.
                assert_eq!(
                    seen.into_iter().collect::<Vec<_>>(),
                    probe.keys,
                    "probe {} declares keys it does not contain",
                    probe.id
                );
            }
        }
    }

    #[test]
    fn latency_chains_are_serialized() {
        // Each chain link must read its own destination so copies
        // serialize; spot-check via the dependency that every link is
        // identical and writes the register it reads.
        let battery = probe_battery(true, false);
        for probe in &battery.probes {
            if let ProbeKind::Latency { len, .. } = probe.kind {
                assert_eq!(probe.block.insts().len(), len, "probe {}", probe.id);
                let first = &probe.block.insts()[0];
                assert!(
                    probe.block.insts().iter().all(|i| i == first),
                    "probe {} links differ",
                    probe.id
                );
            }
        }
    }
}

//! Unit tests of the timing model: behaviour on small blocks, the
//! stamped preparation against the from-scratch one, and the prepared
//! path against the reference pipeline.

use super::prepare::ChunkTable;
use super::*;
use crate::cache::Cache;
use crate::CODE_BASE;
use bhive_asm::{parse_block, BasicBlock};
use bhive_corpus::{generate_block, Application};
use bhive_uarch::Uarch;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Builds a synthetic trace with `copies` executions of the block and
/// default (no-fault, no-load) effects.
fn trace_for(n_insts: usize, copies: u32) -> Vec<DynInst> {
    let mut out = Vec::new();
    for copy in 0..copies {
        for idx in 0..n_insts {
            out.push(DynInst {
                static_idx: idx,
                copy,
                effects: InstEffects::default(),
            });
        }
    }
    out
}

fn time(block_text: &str, copies: u32) -> TimingResult {
    let block = parse_block(block_text).unwrap();
    let uarch = Uarch::haswell();
    let model = TimingModel::new(block.insts(), uarch);
    let layout = CodeLayout::from_block(block.insts(), 0x40_0000).unwrap();
    let mut l1i = Cache::new(uarch.l1i);
    let mut l1d = Cache::new(uarch.l1d);
    let trace = trace_for(block.len(), copies);
    // Warm-up run, then measured run (the paper's double execution).
    model.run(&trace, &layout, &mut l1i, &mut l1d).unwrap();
    model.run(&trace, &layout, &mut l1i, &mut l1d).unwrap()
}

#[test]
fn independent_adds_reach_alu_throughput() {
    // Four independent adds per iteration: limited by the four ALU
    // ports -> ~1 cycle per iteration of 4 adds.
    let tp = |text: &str| {
        let a = time(text, 100).cycles as f64;
        let b = time(text, 200).cycles as f64;
        (b - a) / 100.0
    };
    let four_adds = "add rax, 1\nadd rbx, 1\nadd rcx, 1\nadd rsi, 1";
    let t = tp(four_adds);
    assert!(
        (0.9..=1.6).contains(&t),
        "4 independent adds: {t} cycles/iter"
    );
}

#[test]
fn dependent_chain_is_latency_bound() {
    // A dependent add chain retires 1 per cycle regardless of width.
    let block = "add rax, 1\nadd rax, 1\nadd rax, 1\nadd rax, 1";
    let a = time(block, 100).cycles as f64;
    let b = time(block, 200).cycles as f64;
    let per_iter = (b - a) / 100.0;
    assert!(
        (3.5..=4.5).contains(&per_iter),
        "chain of 4: {per_iter} cycles/iter"
    );
}

#[test]
fn imul_chain_latency() {
    let block = "imul rax, rbx";
    let a = time(block, 100).cycles as f64;
    let b = time(block, 200).cycles as f64;
    let per_iter = (b - a) / 100.0;
    assert!(
        (2.5..=3.5).contains(&per_iter),
        "imul latency 3: {per_iter}"
    );
}

#[test]
fn zero_idiom_breaks_chains() {
    // xor rax,rax between dependent adds removes the cross-iteration
    // dependency.
    let chained = "add rax, 1\nadd rax, 1\nadd rax, 1\nadd rax, 1";
    let broken = "xor eax, eax\nadd rax, 1\nadd rax, 1\nadd rax, 1";
    let t_chained = time(chained, 200).cycles;
    let t_broken = time(broken, 200).cycles;
    assert!(
        t_broken < t_chained,
        "zero idiom should help: {t_broken} !< {t_chained}"
    );
}

#[test]
fn large_block_overflows_l1i() {
    // ~200 8-byte instructions = 1.6 KiB per copy. At unroll 100 the
    // footprint (160 KiB) blows the 32 KiB L1I.
    let mut text = String::new();
    for i in 0..200 {
        text.push_str(&format!("add rax, {}\n", 0x100 + i));
    }
    let small = time(&text, 4);
    assert_eq!(small.l1i_misses, 0, "4 copies fit after warm-up");
    let big = time(&text, 100);
    assert!(big.l1i_misses > 0, "100 copies must miss in the L1I");
}

#[test]
fn cold_caches_miss_then_warm_hit() {
    let block = parse_block("mov rax, qword ptr [rbx]").unwrap();
    let uarch = Uarch::haswell();
    let model = TimingModel::new(block.insts(), uarch);
    let layout = CodeLayout::from_block(block.insts(), 0x40_0000).unwrap();
    let mut l1i = Cache::new(uarch.l1i);
    let mut l1d = Cache::new(uarch.l1d);
    let fx = InstEffects {
        load: Some(crate::exec::MemAccess {
            vaddr: 0x9000,
            paddr: 0x3000,
            width: 8,
            write: false,
        }),
        ..InstEffects::default()
    };
    let trace = vec![DynInst {
        static_idx: 0,
        copy: 0,
        effects: fx,
    }];
    let cold = model.run(&trace, &layout, &mut l1i, &mut l1d).unwrap();
    assert_eq!(cold.l1d_read_misses, 1);
    let warm = model.run(&trace, &layout, &mut l1i, &mut l1d).unwrap();
    assert_eq!(warm.l1d_read_misses, 0);
    assert!(warm.cycles < cold.cycles);
}

#[test]
fn misaligned_access_counted_and_slow() {
    let block = parse_block("mov rax, qword ptr [rbx]").unwrap();
    let uarch = Uarch::haswell();
    let model = TimingModel::new(block.insts(), uarch);
    let layout = CodeLayout::from_block(block.insts(), 0x40_0000).unwrap();
    let mk = |vaddr: u64| {
        let fx = InstEffects {
            load: Some(crate::exec::MemAccess {
                vaddr,
                paddr: vaddr % 4096,
                width: 8,
                write: false,
            }),
            ..InstEffects::default()
        };
        vec![DynInst {
            static_idx: 0,
            copy: 0,
            effects: fx,
        }]
    };
    let mut l1i = Cache::new(uarch.l1i);
    let mut l1d = Cache::new(uarch.l1d);
    let aligned = model.run(&mk(0x9000), &layout, &mut l1i, &mut l1d).unwrap();
    assert_eq!(aligned.misaligned, 0);
    let split = model.run(&mk(0x903C), &layout, &mut l1i, &mut l1d).unwrap();
    assert_eq!(split.misaligned, 1);
}

#[test]
fn subnormal_multiplies_latency() {
    let block = parse_block("mulps xmm0, xmm1").unwrap();
    let uarch = Uarch::haswell();
    let model = TimingModel::new(block.insts(), uarch);
    let layout = CodeLayout::from_block(block.insts(), 0x40_0000).unwrap();
    let fast_fx = InstEffects::default();
    let slow_fx = InstEffects {
        subnormal: true,
        ..InstEffects::default()
    };
    let mk = |fx: InstEffects| {
        (0..50)
            .map(|c| DynInst {
                static_idx: 0,
                copy: c,
                effects: fx,
            })
            .collect::<Vec<_>>()
    };
    let mut l1i = Cache::new(uarch.l1i);
    let mut l1d = Cache::new(uarch.l1d);
    let fast = model
        .run(&mk(fast_fx), &layout, &mut l1i, &mut l1d)
        .unwrap();
    let slow = model
        .run(&mk(slow_fx), &layout, &mut l1i, &mut l1d)
        .unwrap();
    assert!(
        slow.cycles > fast.cycles * 5,
        "subnormals must be drastically slower: {} vs {}",
        slow.cycles,
        fast.cycles
    );
}

#[test]
fn decompose_respects_table_overrides() {
    let inst = bhive_asm::parse_inst("imul rax, rbx").unwrap();
    let hsw = Uarch::haswell();
    let inst_static = |uarch: &Uarch| inst_static_of(&inst, decompose(&inst, uarch));
    let shipped = inst_static(hsw);
    let mut ov = bhive_uarch::TableOverrides::new();
    ov.set("mul", 7, bhive_uarch::ports!(5));
    let patched = hsw.with_overrides(ov);
    let overridden = inst_static(&patched);
    assert_eq!(shipped.uops[0].latency, 3);
    assert_eq!(overridden.uops[0].latency, 7);
    // And again, both ways round.
    assert_eq!(inst_static(&patched).uops[0].latency, 7);
    assert_eq!(inst_static(hsw).uops[0].latency, 3);
}

#[test]
fn macro_fusion_saves_a_slot() {
    let uarch = Uarch::haswell();
    let fused_block = parse_block("cmp rax, rbx\nje -0x10").unwrap();
    let model = TimingModel::new(fused_block.insts(), uarch);
    assert!(model.fused_into_prev[1]);
}

#[test]
fn div_latency_fast_path() {
    // 64-bit divide with rdx=0 is far faster than with rdx!=0.
    let fast = div_latency(UarchKind::Haswell, 8, 10, true);
    let slow = div_latency(UarchKind::Haswell, 8, 10, false);
    assert!(slow > 2 * fast);
    // 32-bit div with tiny quotient is ~20-22 cycles on Haswell
    // (the paper's case study measures 21.62).
    let d32 = div_latency(UarchKind::Haswell, 4, 4, true);
    assert!((20..=24).contains(&d32));
}

#[test]
fn chunk_table_tracks_latest_store() {
    let mut t = ChunkTable::default();
    t.reset();
    assert_eq!(t.get(3), None);
    t.insert(3, 7);
    t.insert(3, 9);
    assert_eq!(t.get(3), Some(9));
    // Force several growths and verify everything survives rehash.
    for i in 0..500u64 {
        t.insert(i * 0x1_0001, i as u32);
    }
    for i in 0..500u64 {
        assert_eq!(t.get(i * 0x1_0001), Some(i as u32));
    }
    t.reset();
    assert_eq!(t.get(3), None);
}

#[test]
fn from_spans_matches_from_block() {
    let block = parse_block("add rax, 1\nmov rbx, qword ptr [rcx]\nxor edx, edx").unwrap();
    let reference = CodeLayout::from_block(block.insts(), 0x40_0000).unwrap();
    let layout = CodeLayout::from_spans(reference.inst_spans.clone(), 0x40_0000);
    assert_eq!(layout.block_len, reference.block_len);
    assert_eq!(layout.inst_spans, reference.inst_spans);
    assert_eq!(layout.base, reference.base);
}

/// Cold then warm on every shipped uarch: the prepared path must
/// match the reference bit for bit, with cache state carried
/// identically on both sides.
fn assert_prepared_matches_reference(block: &BasicBlock, trace: &[DynInst]) {
    for uarch in [Uarch::ivy_bridge(), Uarch::haswell(), Uarch::skylake()] {
        let model = TimingModel::new(block.insts(), uarch);
        let layout = CodeLayout::from_block(block.insts(), 0x40_0000).unwrap();
        let mut l1i_a = Cache::new(uarch.l1i);
        let mut l1d_a = Cache::new(uarch.l1d);
        let mut l1i_b = Cache::new(uarch.l1i);
        let mut l1d_b = Cache::new(uarch.l1d);
        let prep = model.prepare(trace, &layout);
        let mut scratch = SimScratch::default();
        for pass in ["cold", "warm"] {
            let reference = model.run_reference(trace, &layout, &mut l1i_b, &mut l1d_b);
            let split =
                model.simulate_with(&prep, trace.len(), &mut l1i_a, &mut l1d_a, &mut scratch);
            assert_eq!(split, reference, "{pass} pass on {:?}", uarch.kind);
        }
    }
}

#[test]
fn prepared_path_matches_reference() {
    // 40 copies of `block` whose instruction `store` stores to, and
    // instruction `load` then loads from, an address that moves by 8
    // bytes per copy.
    let forwarding_trace = |block: &BasicBlock, store: usize, load: usize| {
        let mut trace = Vec::new();
        for copy in 0..40u32 {
            for idx in 0..block.len() {
                let access = crate::exec::MemAccess {
                    vaddr: 0x9000 + u64::from(copy) * 8,
                    paddr: 0x1000 + u64::from(copy) * 8 % 4096,
                    width: 8,
                    write: idx == store,
                };
                let mut fx = InstEffects::default();
                if idx == store {
                    fx.store = Some(access);
                } else if idx == load {
                    fx.load = Some(access);
                }
                trace.push(DynInst {
                    static_idx: idx,
                    copy,
                    effects: fx,
                });
            }
        }
        trace
    };
    // Mixed block: zero idiom, eliminated move, flags, load + store
    // with forwarding, macro-fusable pair.
    let text = "xor eax, eax\n\
                mov rbx, rcx\n\
                add rax, rbx\n\
                mov qword ptr [rsi], rax\n\
                mov rdx, qword ptr [rsi]\n\
                cmp rdx, rax\n\
                je -0x10";
    let block = parse_block(text).unwrap();
    let trace = forwarding_trace(&block, 3, 4);
    assert_prepared_matches_reference(&block, &trace);

    // A load-op that forwards from a store: its compute uop must still
    // wait on the slow `rdx` chain as well as on the load.
    let block = parse_block(
        "imul rdx, rdx\nimul rdx, rdx\nmov qword ptr [rsi], rax\nadd rdx, qword ptr [rsi]",
    )
    .unwrap();
    assert_prepared_matches_reference(&block, &forwarding_trace(&block, 2, 3));

    // Deep wake-up calendar: three independent multiplies issue on
    // back-to-back cycles and each resolves 30 `lea`s at once, so
    // about 90 wake-ups (uop ids on both sides of a 64-bit
    // ready-set word) wait in the calendar together.
    let mut text = String::from("imul rax, rbx\nimul rdx, rbx\nimul rsi, rbx");
    for i in 0..90 {
        let src = ["rax", "rdx", "rsi"][i % 3];
        text.push_str(&format!("\nlea rcx, [{src} + {i}]"));
    }
    let block = parse_block(&text).unwrap();
    assert_prepared_matches_reference(&block, &trace_for(block.len(), 4));
}

/// Two independent divisions per copy share port 0, whose divider stays
/// blocked for several cycles after each issue: one division is ready
/// while its only port is busy, so the loop steps through cycles in which
/// nothing issues, retires or renames, and the stall fast-forward must not
/// skip them.
#[test]
fn ready_uop_waiting_on_a_blocking_port_matches_reference() {
    let text = "divps xmm0, xmm1\ndivps xmm2, xmm3";
    let block = parse_block(text).unwrap();
    assert_prepared_matches_reference(&block, &trace_for(block.len(), 20));
    // On Haswell each `divps` blocks port 0 for 7 cycles, so two per copy
    // bound the schedule above the 13-cycle chain through each register.
    let per_copy = (time(text, 40).cycles - time(text, 20).cycles) / 20;
    assert_eq!(per_copy, 14, "port-bound, not latency-bound");
}

#[test]
fn prefix_replay_matches_prefix_preparation() {
    let text = "add rax, 1\nmov rbx, rax\nimul rbx, rcx\nxor edx, edx";
    let block = parse_block(text).unwrap();
    let uarch = Uarch::haswell();
    let model = TimingModel::new(block.insts(), uarch);
    let layout = CodeLayout::from_block(block.insts(), 0x40_0000).unwrap();
    let full = trace_for(block.len(), 16);
    let prep = model.prepare(&full, &layout);
    let mut scratch = SimScratch::default();
    for copies in [0u32, 1, 4, 16] {
        let n = block.len() * copies as usize;
        let mut l1i_a = Cache::new(uarch.l1i);
        let mut l1d_a = Cache::new(uarch.l1d);
        let mut l1i_b = Cache::new(uarch.l1i);
        let mut l1d_b = Cache::new(uarch.l1d);
        let split = model.simulate_with(&prep, n, &mut l1i_a, &mut l1d_a, &mut scratch);
        let reference = model.run_reference(&full[..n], &layout, &mut l1i_b, &mut l1d_b);
        assert_eq!(split, reference, "prefix of {copies} copies");
    }
}

/// Asserts that two preparations agree column for column.
fn assert_same_columns(a: &PreparedTrace, b: &PreparedTrace, what: &str) {
    assert_eq!(a.meta, b.meta, "meta: {what}");
    assert_eq!(a.mem_addr, b.mem_addr, "mem_addr: {what}");
    // Stamped copies may place a list elsewhere in `dep_pool`; what
    // must agree is every uop's list.
    let lists = |p: &PreparedTrace| -> Vec<Vec<u32>> {
        p.dep_start
            .iter()
            .zip(&p.dep_len)
            .map(|(&s, &len)| p.dep_pool[s as usize..][..usize::from(len)].to_vec())
            .collect()
    };
    assert_eq!(lists(a), lists(b), "dependency lists: {what}");
    assert_eq!(a.use_start, b.use_start, "use_start: {what}");
    assert_eq!(a.use_pool, b.use_pool, "use_pool: {what}");
    assert_eq!(a.ready0_mask, b.ready0_mask, "ready0_mask: {what}");
    assert_eq!(a.wake0, b.wake0, "wake0: {what}");
    assert_eq!(a.inst_state0, b.inst_state0, "inst_state0: {what}");
    assert_eq!(a.inst_meta, b.inst_meta, "inst_meta: {what}");
    assert_eq!(a.fetch_base, b.fetch_base, "fetch_base: {what}");
    assert_eq!(a.probes, b.probes, "probes: {what}");
}

/// Prepares every prefix length in `lens` of `trace` both ways, into
/// reused (stale) preparations, and compares them.
/// Returns how many copies come from the scoreboard before the
/// template is built (later copies are stamped), if it is built.
fn assert_stamped_matches_generic(
    block: &BasicBlock,
    uarch: &Uarch,
    trace: &[DynInst],
    what: &str,
) -> Option<usize> {
    let model = TimingModel::new(block.insts(), uarch);
    let layout = CodeLayout::from_block(block.insts(), 0x40_0000).unwrap();
    let mut stamped = PreparedTrace::default();
    let mut generic = PreparedTrace::default();
    let n = block.len().max(1);
    for len in [
        trace.len(),
        trace.len() / 2,
        trace.len().saturating_sub(n / 2 + 1),
        n,
        1,
    ] {
        let len = len.min(trace.len());
        model.prepare_into(&mut stamped, &trace[..len], &layout);
        model.prepare_generic_into(&mut generic, &trace[..len], &layout);
        assert_same_columns(
            &stamped,
            &generic,
            &format!("{what}, {len} insts on {:?}", uarch.kind),
        );
        assert!(generic.tmpl_inst.is_empty(), "the oracle never stamps");
    }
    (1..=trace.len() / n).find(|&copies| {
        model.prepare_into(&mut stamped, &trace[..copies * n], &layout);
        !stamped.tmpl_inst.is_empty()
    })
}

const FILL: u64 = 0x1234_5600;

/// Executes `unroll` copies of `block` from the fill state after
/// `setup`, mapping every faulting page to one shared frame.
fn executed_trace(
    block: &BasicBlock,
    uarch: &'static Uarch,
    unroll: u32,
    setup: impl Fn(&mut crate::Machine),
) -> Option<Vec<DynInst>> {
    let mut machine = crate::Machine::new(uarch, 0);
    machine.reset(FILL);
    setup(&mut machine);
    let page = machine.memory_mut().alloc_page(FILL);
    let mut trace = Vec::new();
    for _ in 0..64 {
        match machine.resume_unrolled_into(block.insts(), unroll, &mut trace) {
            Ok(()) => return Some(trace),
            Err(crate::ExecFault::Seg(f)) if (0x1000..1 << 47).contains(&f.vaddr) => {
                machine.memory_mut().map(f.vaddr, page);
            }
            Err(_) => return None,
        }
    }
    None
}

/// Flush-to-zero and denormals-are-zero on, as the BHive profiling config
/// runs blocks.
fn ftz_daz(machine: &mut crate::Machine) {
    machine.set_ftz_daz(true);
}

fn uarches() -> [&'static Uarch; 3] {
    [Uarch::ivy_bridge(), Uarch::haswell(), Uarch::skylake()]
}

/// Stamping must reproduce the from-scratch preparation exactly on
/// the shapes that stress it: eliminated-move rotations (the
/// scoreboard repeats only up to a permutation, or late), zero
/// idioms, store forwarding across copies through moving addresses,
/// data-dependent division and copies whose subnormal inputs come
/// and go.
#[test]
fn stamped_prepare_matches_generic() {
    let set_lanes = |machine: &mut crate::Machine, reg: u8, value: f32| {
        let mut bytes = [0u8; 16];
        for chunk in bytes.chunks_exact_mut(4) {
            chunk.copy_from_slice(&value.to_le_bytes());
        }
        machine
            .state_mut()
            .set_vec(bhive_asm::VecReg::xmm(reg), &bytes, false);
    };
    let cases: [(&str, &str); 9] = [
        (
            "move rotation",
            "mov rax, rbx\nmov rbx, rcx\nmov rcx, rax\nadd rdx, rax\nimul rbx, rdx",
        ),
        (
            "move rotation, late steady state",
            "add rax, 1\nmov rdx, rcx\nmov rcx, rbx\nmov rbx, rax\nadd rsi, rdx",
        ),
        (
            "zero idioms",
            "xor eax, eax\nadd rax, rbx\nsub ecx, ecx\nadc rcx, rax\npxor xmm0, xmm0\naddps xmm0, xmm1",
        ),
        (
            "forwarding across copies",
            "mov rax, qword ptr [rsi]\nadd rax, 1\nmov qword ptr [rsi + 8], rax\nadd rsi, 8",
        ),
        (
            "partial forwarding, moving base",
            "mov dword ptr [rdi + 4], eax\nmov rax, qword ptr [rdi]\nadd rdi, 4\npush rax\npop rbx",
        ),
        (
            "data-dependent division",
            "xor edx, edx\nmov eax, esi\ndiv ecx\nadd esi, esi\nadd rbx, rax",
        ),
        (
            "subnormals come and go",
            "mulps xmm0, xmm1\naddps xmm2, xmm0\nmovaps xmm3, xmm2",
        ),
        ("all eliminated", "xor eax, eax\nmov rbx, rcx\nnop"),
        (
            "read-modify-write chain",
            "add qword ptr [rbx], rax\nadd rax, qword ptr [rbx + 8]\nsub rbx, 8",
        ),
    ];
    for (what, text) in cases {
        let block = parse_block(text).unwrap();
        for uarch in uarches() {
            let trace = executed_trace(&block, uarch, 24, |machine| {
                set_lanes(machine, 0, 1e-30);
                set_lanes(machine, 1, 1e-2);
            })
            .unwrap_or_else(|| panic!("{what} executes"));
            let from_scoreboard = assert_stamped_matches_generic(&block, uarch, &trace, what);
            // The 24-copy trace stamps some copies...
            let from_scoreboard = from_scoreboard
                .filter(|&copies| copies < 24)
                .unwrap_or_else(|| panic!("{what} on {:?} never stamped", uarch.kind));
            if what.ends_with("late steady state") && uarch.kind != UarchKind::IvyBridge {
                // ...and `rdx` carries `rax`'s producer from three
                // copies back, so the scoreboard repeats only after
                // the fourth.
                assert_eq!(from_scoreboard, 4, "{what} on {:?}", uarch.kind);
            }
        }
    }
    // Hand-built traces that are not whole copies fall back to the
    // from-scratch path.
    let block = parse_block("add rax, 1\nimul rbx, rax").unwrap();
    let mut trace = trace_for(block.len(), 8);
    trace.swap(3, 4);
    assert_stamped_matches_generic(&block, Uarch::haswell(), &trace, "reordered");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Generated blocks from every application profile, executed at a
    /// random unroll factor on all three uarches.
    #[test]
    fn stamped_prepare_matches_generic_on_the_corpus(
        seed in any::<u64>(),
        app_idx in 0usize..12,
        unroll in 1u32..40,
    ) {
        let app = Application::ALL[app_idx];
        let mut rng = SmallRng::seed_from_u64(seed);
        let block = generate_block(app, &mut rng);
        if block.encode().is_err() {
            return Ok(());
        }
        for uarch in uarches() {
            if let Some(trace) = executed_trace(&block, uarch, unroll, |_| {}) {
                assert_stamped_matches_generic(&block, uarch, &trace, "corpus");
            }
        }
    }
}

/// A trace whose retire head stays dozens of ready-set words behind
/// rename: a serial `sqrtsd` chain holds the head while a machine with
/// a huge window renames thousands of independent uops past it. The
/// issue scan starts at the head's word, so this pins that start
/// against the reference pipeline, which keeps an explicit station.
#[test]
fn long_window_matches_reference() {
    let wide: &'static Uarch = Box::leak(Box::new(Uarch {
        rob_size: 4096,
        rs_size: 4096,
        ..Uarch::haswell().clone()
    }));
    let block = parse_block(
        "sqrtsd xmm0, xmm0\nadd rbx, 1\nadd rsi, 1\nadd rdi, 1\nadd r8, 1\nimul r9, r10",
    )
    .unwrap();
    let model = TimingModel::new(block.insts(), wide);
    let layout = CodeLayout::from_block(block.insts(), 0x40_0000).unwrap();
    let trace = trace_for(block.len(), 300);
    let prep = model.prepare(&trace, &layout);
    let mut scratch = SimScratch::default();
    for n in [trace.len(), trace.len() / 3 + 1] {
        let mut l1i_a = Cache::new(wide.l1i);
        let mut l1d_a = Cache::new(wide.l1d);
        let mut l1i_b = Cache::new(wide.l1i);
        let mut l1d_b = Cache::new(wide.l1d);
        let split = model
            .simulate_with(&prep, n, &mut l1i_a, &mut l1d_a, &mut scratch)
            .unwrap();
        let reference = model
            .run_reference(&trace[..n], &layout, &mut l1i_b, &mut l1d_b)
            .unwrap();
        assert_eq!(split, reference, "prefix of {n} insts");
        // The chain, not the window, bounds the schedule: rename ran
        // far ahead of retirement.
        let copies = (n / block.len()) as u64;
        assert!(split.cycles >= copies * 10, "{} cycles", split.cycles);
    }
}

/// A reservation station that can never hold a single uop deadlocks
/// rename forever. Both paths must report the same hard error — in
/// debug *and* release — instead of returning a truncated result.
#[test]
fn pathological_schedule_is_a_hard_error_on_both_paths() {
    let starved: &'static Uarch = Box::leak(Box::new(Uarch {
        rs_size: 0,
        ..Uarch::haswell().clone()
    }));
    let block = parse_block("add rax, 1\nadd rbx, 1").unwrap();
    let model = TimingModel::new(block.insts(), starved);
    let layout = CodeLayout::from_block(block.insts(), 0x40_0000).unwrap();
    let trace = trace_for(block.len(), 4);

    let mut l1i = Cache::new(starved.l1i);
    let mut l1d = Cache::new(starved.l1d);
    let reference = model.run_reference(&trace, &layout, &mut l1i, &mut l1d);
    let err = reference.expect_err("reference must fail to converge");
    assert_eq!(err.retired, 0);
    assert_eq!(err.total_insts, trace.len());
    assert!(err.cycle_budget >= 1_000_000);
    assert!(err.to_string().contains("failed to converge"));

    let prep = model.prepare(&trace, &layout);
    let mut scratch = SimScratch::default();
    let mut l1i = Cache::new(starved.l1i);
    let mut l1d = Cache::new(starved.l1d);
    let split = model.simulate_with(&prep, trace.len(), &mut l1i, &mut l1d, &mut scratch);
    assert_eq!(split, reference, "error parity");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cold- and warm-cache double execution: prepared path == reference,
    /// on every uarch, for a random block at a random unroll factor.
    #[test]
    fn prepared_equals_reference(seed in any::<u64>(), app_idx in 0usize..12, unroll in 1u32..24) {
        let app = Application::ALL[app_idx];
        let mut rng = SmallRng::seed_from_u64(seed);
        let block = generate_block(app, &mut rng);
        if block.encode().is_err() {
            return Ok(());
        }

        for uarch in uarches() {
            let Some(trace) = executed_trace(&block, uarch, unroll, ftz_daz) else {
                return Ok(());
            };
            let layout = CodeLayout::from_block(block.insts(), CODE_BASE).unwrap();
            let model = TimingModel::new(block.insts(), uarch);

            // Reference: two back-to-back runs over cold caches.
            let mut ref_l1i = Cache::new(uarch.l1i);
            let mut ref_l1d = Cache::new(uarch.l1d);
            let ref_cold = model.run_reference(&trace, &layout, &mut ref_l1i, &mut ref_l1d);
            let ref_warm = model.run_reference(&trace, &layout, &mut ref_l1i, &mut ref_l1d);

            // Prepared path: one preparation, two simulations sharing one
            // scratch, as the profiler replays them.
            let prep = model.prepare(&trace, &layout);
            let mut l1i = Cache::new(uarch.l1i);
            let mut l1d = Cache::new(uarch.l1d);
            let mut scratch = SimScratch::default();
            let n = trace.len();
            let cold = model.simulate_with(&prep, n, &mut l1i, &mut l1d, &mut scratch);
            let warm = model.simulate_with(&prep, n, &mut l1i, &mut l1d, &mut scratch);

            prop_assert_eq!(cold, ref_cold, "cold divergence on {:?}", uarch.kind);
            prop_assert_eq!(warm, ref_warm, "warm divergence on {:?}", uarch.kind);
        }
    }

    /// Prefix replay: simulating the first `n` instructions of a prepared
    /// hi-factor trace must equal preparing and running the lo-factor
    /// trace from scratch — the property that lets `measure` reuse one
    /// preparation for both unroll factors.
    #[test]
    fn prefix_replay_equals_reference(seed in any::<u64>(), app_idx in 0usize..12) {
        let app = Application::ALL[app_idx];
        let mut rng = SmallRng::seed_from_u64(seed);
        let block = generate_block(app, &mut rng);
        if block.encode().is_err() {
            return Ok(());
        }
        let uarch = Uarch::haswell();
        let Some(trace) = executed_trace(&block, uarch, 17, ftz_daz) else {
            return Ok(());
        };
        let layout = CodeLayout::from_block(block.insts(), CODE_BASE).unwrap();
        let model = TimingModel::new(block.insts(), uarch);
        let prep = model.prepare(&trace, &layout);

        for lo in [1usize, 2, 5, 17] {
            let n = (lo * block.len()).min(trace.len());
            let mut ref_l1i = Cache::new(uarch.l1i);
            let mut ref_l1d = Cache::new(uarch.l1d);
            let reference = model.run_reference(&trace[..n], &layout, &mut ref_l1i, &mut ref_l1d);

            let mut l1i = Cache::new(uarch.l1i);
            let mut l1d = Cache::new(uarch.l1d);
            let mut scratch = SimScratch::default();
            let replayed = model.simulate_with(&prep, n, &mut l1i, &mut l1d, &mut scratch);
            prop_assert_eq!(replayed, reference, "prefix n={} diverged", n);
        }
    }
}

/// The empty trace is a fixed point of both paths.
#[test]
fn empty_trace_is_identical() {
    let block = bhive_asm::parse_block("add rax, 1").unwrap();
    let uarch = Uarch::haswell();
    let model = TimingModel::new(block.insts(), uarch);
    let layout = CodeLayout::from_block(block.insts(), CODE_BASE).unwrap();
    let mut l1i = Cache::new(uarch.l1i);
    let mut l1d = Cache::new(uarch.l1d);
    let reference = model.run_reference(&[], &layout, &mut l1i, &mut l1d);
    let prep = model.prepare(&[], &layout);
    let split = model.simulate(&prep, &mut l1i, &mut l1d);
    assert_eq!(split, reference);
}

//! The host CPU referees the simulator's functional executor.
//!
//! Each block runs twice. The lowered executor runs it under the monitor
//! loop (map each faulting page onto one shared frame, restart), which
//! yields the final `CpuState`, the shared frame's bytes and the pages the
//! block touches. The host then runs the same bytes natively, with the
//! paper's Fig. 2 mechanism minus ptrace. A forked child maps the code at
//! `CODE_BASE` and every recorded page onto one memfd page filled as
//! `Memory::refill_all` fills a frame. A prologue clears the flags, sets
//! MXCSR's FTZ/DAZ as configured and loads the fill into every YMM and
//! GPR. After `unroll` copies of the block, an epilogue stores the GPRs,
//! the YMMs and five flags to a shared save area and exits.
//!
//! After a clean exit the oracle compares all 16 GPRs, all 16 YMMs at 32
//! bytes, CF/ZF/SF/OF/PF and the shared page. A flag is masked when the
//! last instruction to write it leaves it undefined (Intel SDM): SF, ZF
//! and PF after `mul`/`imul`; every flag after `div`/`idiv`; OF after a
//! shift or rotate by more than one; CF after `shl`/`shr` by at least the
//! operand width; OF, SF and PF after `lzcnt`/`tzcnt`. No supported
//! instruction leaves a register result undefined. After a signal the
//! oracle compares the fault class: SIGSEGV is a page fault or an
//! alignment #GP, SIGFPE a divide error, and any other death fails. A
//! block is skipped, and counted, when the host lacks an extension it uses
//! or when one of its pages collides with a mapping the child already has.
//!
//! The host's ISA decides what runs, so the Ivy Bridge AVX2 `#UD` gate is
//! tested in the lowered path alone (`semantics.rs`).

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

mod common;

use bhive_asm::{parse_block, BasicBlock, Gpr, Inst, MemRef, Mnemonic, OpSize, Operand, VecWidth};
use bhive_corpus::{generate_block, Application};
use bhive_sim::{CpuState, DynInst, ExecFault, Machine, CODE_BASE, PAGE_SIZE};
use bhive_uarch::Uarch;
use common::{faulting_inst_text, machine_with_pages, prefix_block, run_monitored, FILL};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fs::File;
use std::os::fd::FromRawFd;
use std::os::unix::fs::FileExt;
use std::time::{Duration, Instant};

/// The harness's production unroll factors (`ProfileConfig::bhive()`).
const UNROLLS: [u32; 2] = [50, 100];

/// Generated blocks per application profile in the corpus sweep.
const BLOCKS_PER_APP: usize = 84;

/// How long a child may run before it is killed. The blocks are straight
/// line code, so a live child is a few milliseconds from exiting.
const DEADLINE: Duration = Duration::from_secs(10);

mod sys {
    use std::os::raw::{c_char, c_int, c_long, c_uint, c_void};

    pub const PROT_RW: c_int = 0x1 | 0x2;
    pub const PROT_RWX: c_int = 0x1 | 0x2 | 0x4;
    pub const MAP_SHARED: c_int = 0x01;
    pub const MAP_PRIVATE: c_int = 0x02;
    pub const MAP_ANONYMOUS: c_int = 0x20;
    pub const MAP_FIXED_NOREPLACE: c_int = 0x10_0000;
    pub const MFD_CLOEXEC: c_uint = 1;
    pub const WNOHANG: c_int = 1;
    pub const SIGILL: c_int = 4;
    pub const SIGFPE: c_int = 8;
    pub const SIGBUS: c_int = 7;
    pub const SIGKILL: c_int = 9;
    pub const SIGSEGV: c_int = 11;
    pub const SIG_DFL: usize = 0;

    extern "C" {
        pub fn memfd_create(name: *const c_char, flags: c_uint) -> c_int;
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn fork() -> c_int;
        pub fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
        pub fn kill(pid: c_int, sig: c_int) -> c_int;
        pub fn signal(signum: c_int, handler: usize) -> usize;
        pub fn _exit(status: c_int) -> !;
    }
}

/// Child exit statuses for a mapping that collided with one it has.
const EXIT_CODE_TAKEN: i32 = 101;
const EXIT_PAGE_TAKEN: i32 = 102;

/// Save-area layout: 16 GPRs, then 16 YMMs, then one byte per flag.
const SAVE_YMM: usize = 16 * 8;
const SAVE_FLAGS: usize = SAVE_YMM + 16 * 32;
const SAVE_LEN: usize = PAGE_SIZE as usize;

/// The flags compared, in save-area order, with the second opcode byte of
/// the `setcc` that stores each one.
const FLAGS: [(&str, u8); 5] = [
    ("CF", 0x92),
    ("ZF", 0x94),
    ("SF", 0x98),
    ("OF", 0x90),
    ("PF", 0x9A),
];
const CF: usize = 0;
const ZF: usize = 1;
const SF: usize = 2;
const OF: usize = 3;
const PF: usize = 4;

/// Architectural state after a run, in the oracle's terms.
#[derive(Debug, Clone, PartialEq)]
struct Snapshot {
    gprs: [u64; 16],
    ymms: [[u8; 32]; 16],
    flags: [bool; 5],
}

impl Snapshot {
    fn of(state: &CpuState) -> Snapshot {
        let f = state.flags;
        Snapshot {
            gprs: std::array::from_fn(|r| state.gpr64(Gpr::from_number(r as u8))),
            ymms: std::array::from_fn(|r| *state.vec_raw(r as u8)),
            flags: [f.cf, f.zf, f.sf, f.of, f.pf],
        }
    }
}

/// What the host did with a block.
enum Native {
    /// The epilogue ran: registers, flags and the shared page's bytes.
    Exited(Box<Snapshot>, Vec<u8>),
    /// The child died of this signal.
    Signaled(i32),
    /// A mapping collided with one the child already has.
    Collided,
    /// Anything else (an unexpected exit status, or the deadline).
    Failed(String),
}

/// The fill pattern as `Memory` lays it out: the low 32 bits, repeated.
fn fill_bytes(len: usize) -> Vec<u8> {
    (FILL as u32)
        .to_le_bytes()
        .into_iter()
        .cycle()
        .take(len)
        .collect()
}

/// The VEX2 second byte for a 256-bit, F3-prefixed op on `ymm{r}`.
fn vex256_f3(r: u8) -> u8 {
    if r < 8 {
        0xFE
    } else {
        0x7E
    }
}

/// The code the child runs: prologue, `unroll` copies of `block`,
/// epilogue, then the prologue's data.
fn native_code(block: &[u8], unroll: u32, mxcsr: u32, save: u64) -> Vec<u8> {
    let mut code = Vec::new();
    // RIP-relative displacements to patch: (position, offset in the data).
    let mut fixups = Vec::new();
    // Cleared flags, while the caller's stack is still live:
    // push 0x202; popfq.
    code.extend([0x68, 0x02, 0x02, 0x00, 0x00, 0x9D]);
    // ldmxcsr [rip + mxcsr]
    code.extend([0x0F, 0xAE, 0x15]);
    fixups.push((code.len(), 32));
    code.extend([0; 4]);
    for r in 0..16u8 {
        // vmovdqu ymm{r}, [rip + fill]
        code.extend([0xC5, vex256_f3(r), 0x6F, 0x05 | (r & 7) << 3]);
        fixups.push((code.len(), 0));
        code.extend([0; 4]);
    }
    for r in 0..16u8 {
        // mov r32, imm32, zero-extending: the GPR fill, RSP included.
        if r >= 8 {
            code.push(0x41);
        }
        code.push(0xB8 + (r & 7));
        code.extend((FILL as u32).to_le_bytes());
    }
    for _ in 0..unroll {
        code.extend_from_slice(block);
    }
    // mov [save], rax; mov rax, save
    code.extend([0x48, 0xA3]);
    code.extend(save.to_le_bytes());
    code.extend([0x48, 0xB8]);
    code.extend(save.to_le_bytes());
    for r in 1..16u8 {
        // mov [rax + 8r], r64
        code.extend([0x48 | (r >> 3) << 2, 0x89, 0x40 | (r & 7) << 3, 8 * r]);
    }
    for r in 0..16u8 {
        // vmovdqu [rax + SAVE_YMM + 32r], ymm{r}
        code.extend([0xC5, vex256_f3(r), 0x7F, 0x80 | (r & 7) << 3]);
        code.extend(((SAVE_YMM + 32 * r as usize) as u32).to_le_bytes());
    }
    for (k, (_, setcc)) in FLAGS.iter().enumerate() {
        // setcc byte ptr [rax + SAVE_FLAGS + k]
        code.extend([0x0F, *setcc, 0x80]);
        code.extend(((SAVE_FLAGS + k) as u32).to_le_bytes());
    }
    // exit_group(0): mov eax, 231; xor edi, edi; syscall
    code.extend([0xB8, 0xE7, 0x00, 0x00, 0x00, 0x31, 0xFF, 0x0F, 0x05]);
    code.resize(code.len().next_multiple_of(32), 0xCC);
    let data = code.len();
    code.extend(fill_bytes(32));
    code.extend(mxcsr.to_le_bytes());
    for (pos, offset) in fixups {
        let disp = (data + offset) as i64 - (pos + 4) as i64;
        code[pos..pos + 4].copy_from_slice(&(disp as i32).to_le_bytes());
    }
    code
}

/// The block's bytes with every `jcc` pointed at the next instruction:
/// the simulator treats branches as not taken.
fn native_bytes(insts: &[Inst]) -> Option<Vec<u8>> {
    if insts.is_empty() {
        return Some(Vec::new());
    }
    let insts = insts
        .iter()
        .map(|inst| match (inst.mnemonic(), inst.cond()) {
            (Mnemonic::Jcc, Some(cond)) => {
                Inst::with_cond(Mnemonic::Jcc, cond, vec![Operand::Imm(0)])
            }
            _ => inst.clone(),
        })
        .collect();
    BasicBlock::new(insts).encode().ok()
}

/// True if the host can run `inst` (the simulator's ISA is Haswell's).
fn host_runs(inst: &Inst) -> bool {
    use Mnemonic::*;
    let ymm = inst
        .operands()
        .iter()
        .any(|op| matches!(op, Operand::Vec(v) if v.width() == VecWidth::Ymm));
    (!inst.is_vex() || is_x86_feature_detected!("avx"))
        && (!ymm || is_x86_feature_detected!("avx2"))
        && match inst.mnemonic() {
            Popcnt => is_x86_feature_detected!("popcnt"),
            Lzcnt => is_x86_feature_detected!("lzcnt"),
            Tzcnt => is_x86_feature_detected!("bmi1"),
            Pmulld => is_x86_feature_detected!("sse4.1"),
            Pshufb => is_x86_feature_detected!("ssse3"),
            Vfmadd231ps | Vfmadd231pd => is_x86_feature_detected!("fma"),
            _ => true,
        }
}

/// A shared anonymous page the child's epilogue stores into.
struct SaveArea(*mut u8);

impl SaveArea {
    fn new() -> SaveArea {
        // SAFETY: a fresh anonymous mapping; no existing memory is touched.
        let at = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                SAVE_LEN,
                sys::PROT_RW,
                sys::MAP_SHARED | sys::MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(
            at as isize != -1,
            "mmap save area: {}",
            std::io::Error::last_os_error()
        );
        SaveArea(at.cast())
    }

    fn snapshot(&self) -> Snapshot {
        // SAFETY: the mapping is SAVE_LEN bytes and no child is alive.
        let bytes = unsafe { std::slice::from_raw_parts(self.0, SAVE_LEN) };
        Snapshot {
            gprs: std::array::from_fn(|r| {
                u64::from_le_bytes(bytes[8 * r..8 * r + 8].try_into().unwrap())
            }),
            ymms: std::array::from_fn(|r| {
                bytes[SAVE_YMM + 32 * r..SAVE_YMM + 32 * r + 32]
                    .try_into()
                    .unwrap()
            }),
            flags: std::array::from_fn(|k| bytes[SAVE_FLAGS + k] != 0),
        }
    }
}

impl Drop for SaveArea {
    fn drop(&mut self) {
        // SAFETY: unmaps exactly the mapping `new` made.
        unsafe { sys::munmap(self.0.cast(), SAVE_LEN) };
    }
}

/// A forked child, killed and reaped on drop unless already reaped.
struct Child {
    pid: i32,
    reaped: bool,
}

impl Child {
    /// Waits for the child's wait status until `deadline`; `None` if it
    /// is still running then (the drop kills and reaps it).
    fn wait(&mut self, deadline: Duration) -> Option<i32> {
        let start = Instant::now();
        let mut nap = Duration::from_micros(20);
        loop {
            let mut status = 0;
            // SAFETY: plain syscall on our own child.
            let got = unsafe { sys::waitpid(self.pid, &mut status, sys::WNOHANG) };
            if got == self.pid {
                self.reaped = true;
                return Some(status);
            }
            assert!(
                got == 0
                    || std::io::Error::last_os_error().kind() == std::io::ErrorKind::Interrupted,
                "waitpid: {}",
                std::io::Error::last_os_error()
            );
            if start.elapsed() > deadline {
                return None;
            }
            std::thread::sleep(nap);
            nap = (nap * 2).min(Duration::from_millis(1));
        }
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        if !self.reaped {
            let mut status = 0;
            // SAFETY: plain syscalls on our own, not yet reaped, child.
            unsafe {
                sys::kill(self.pid, sys::SIGKILL);
                sys::waitpid(self.pid, &mut status, 0);
            }
        }
    }
}

/// The forked child: raw syscalls and copies only, no allocation (the
/// test binary is multi-threaded). Maps the code and the pages without
/// replacing anything, then jumps to the code, which never returns.
///
/// # Safety
///
/// Must run only in a freshly forked child.
unsafe fn child(code: &[u8], pages: &[u64], frame: i32) -> ! {
    for sig in [sys::SIGILL, sys::SIGFPE, sys::SIGBUS, sys::SIGSEGV] {
        sys::signal(sig, sys::SIG_DFL);
    }
    let entry = CODE_BASE as *mut std::os::raw::c_void;
    let code_len = code.len().next_multiple_of(PAGE_SIZE as usize);
    let flags = sys::MAP_PRIVATE | sys::MAP_ANONYMOUS | sys::MAP_FIXED_NOREPLACE;
    if sys::mmap(entry, code_len, sys::PROT_RWX, flags, -1, 0) != entry {
        sys::_exit(EXIT_CODE_TAKEN);
    }
    std::ptr::copy_nonoverlapping(code.as_ptr(), entry.cast::<u8>(), code.len());
    for &page in pages {
        let at = page as *mut std::os::raw::c_void;
        let flags = sys::MAP_SHARED | sys::MAP_FIXED_NOREPLACE;
        if sys::mmap(at, PAGE_SIZE as usize, sys::PROT_RW, flags, frame, 0) != at {
            sys::_exit(EXIT_PAGE_TAKEN);
        }
    }
    let run: extern "C" fn() -> ! = std::mem::transmute(entry);
    run()
}

/// Runs `unroll` copies of the encoded `block` natively from the fill,
/// with `pages` aliased onto one shared page.
fn run_native(block: &[u8], unroll: u32, ftz_daz: bool, pages: &[u64]) -> Native {
    let mxcsr = 0x1F80 | if ftz_daz { 0x8040 } else { 0 };
    // SAFETY: plain syscall; the descriptor is owned by `frame` below.
    let fd = unsafe { sys::memfd_create(c"bhive-native-oracle".as_ptr(), sys::MFD_CLOEXEC) };
    assert!(fd >= 0, "memfd_create: {}", std::io::Error::last_os_error());
    // SAFETY: `fd` is a fresh descriptor nothing else owns.
    let frame = unsafe { File::from_raw_fd(fd) };
    frame
        .write_all_at(&fill_bytes(PAGE_SIZE as usize), 0)
        .expect("fill the shared page");
    let save = SaveArea::new();
    let code = native_code(block, unroll, mxcsr, save.0 as u64);
    // SAFETY: the child runs only `child`, which never returns.
    let pid = unsafe { sys::fork() };
    assert!(pid >= 0, "fork: {}", std::io::Error::last_os_error());
    if pid == 0 {
        // SAFETY: this is the freshly forked child.
        unsafe { child(&code, pages, fd) }
    }
    let mut child = Child { pid, reaped: false };
    let Some(status) = child.wait(DEADLINE) else {
        return Native::Failed(format!("still running after {DEADLINE:?}"));
    };
    drop(child);
    let (exit_code, signal) = ((status >> 8) & 0xFF, status & 0x7F);
    match (signal, exit_code) {
        (0, 0) => {
            let mut page = vec![0u8; PAGE_SIZE as usize];
            frame
                .read_exact_at(&mut page, 0)
                .expect("read the shared page");
            Native::Exited(Box::new(save.snapshot()), page)
        }
        (0, EXIT_CODE_TAKEN | EXIT_PAGE_TAKEN) => Native::Collided,
        (0, code) => Native::Failed(format!("exited with status {code}")),
        (sig, _) => Native::Signaled(sig),
    }
}

/// Flags an instruction writes, and which of those it leaves undefined,
/// as bitmasks over the `FLAGS` indices. `count` supplies the masked
/// shift or rotate count when the instruction takes it from CL.
fn flag_writes(inst: &Inst, count: impl FnOnce() -> u64) -> (u8, u8) {
    use Mnemonic::*;
    const ALL: u8 = 0b11111;
    let bit = |f: usize| 1u8 << f;
    let width = u32::from(inst.width_bytes()) * 8;
    match inst.mnemonic() {
        Add | Adc | Sub | Sbb | Cmp | Neg | And | Or | Xor | Test | Popcnt | Ucomiss | Ucomisd => {
            (ALL, 0)
        }
        Inc | Dec => (ALL & !bit(CF), 0),
        Imul | Mul => (ALL, bit(SF) | bit(ZF) | bit(PF)),
        Div | Idiv => (ALL, ALL),
        Lzcnt | Tzcnt => (ALL, bit(OF) | bit(SF) | bit(PF)),
        Shl | Shr | Sar | Rol | Ror => {
            let raw = match inst.operands()[1] {
                Operand::Imm(n) => n as u64,
                _ => count(),
            };
            let c = raw & if width == 64 { 63 } else { 31 };
            let rotate = matches!(inst.mnemonic(), Rol | Ror);
            let written = match (c, rotate) {
                (0, _) => 0,
                (_, true) => bit(CF) | bit(OF),
                (_, false) => ALL,
            };
            let mut undefined = if c > 1 { bit(OF) } else { 0 };
            if c >= u64::from(width) && matches!(inst.mnemonic(), Shl | Shr) {
                undefined |= bit(CF);
            }
            (written, undefined & written)
        }
        _ => (0, 0),
    }
}

/// The flags left undefined at the end of `total` dynamic instructions:
/// for each flag, whether the last instruction to write it leaves it
/// undefined. A CL count is read from a lowered run of the prefix.
fn undefined_flags(insts: &[Inst], total: usize, pages: &[u64], ftz_daz: bool) -> u8 {
    let (mut pending, mut undefined) = (0b11111u8, 0u8);
    for d in (0..total).rev() {
        let inst = &insts[d % insts.len()];
        let (written, undef) = flag_writes(inst, || {
            let mut machine = machine_with_pages(pages, ftz_daz);
            machine
                .execute_unrolled(&prefix_block(insts, d), 1)
                .expect("the prefix of a clean run runs clean");
            machine.state().gpr(Gpr::Rcx, OpSize::B)
        });
        undefined |= undef & pending;
        pending &= !written;
        if pending == 0 {
            break;
        }
    }
    undefined
}

/// The result of checking one block at one configuration.
enum Verdict {
    Agreed,
    Skipped,
}

/// Runs `block` in the lowered executor and natively, `unroll` copies,
/// and diffs the two.
fn check(block: &BasicBlock, unroll: u32, ftz_daz: bool) -> Result<Verdict, String> {
    let insts = block.insts();
    if !insts.iter().all(host_runs) {
        return Ok(Verdict::Skipped);
    }
    let Some(bytes) = native_bytes(insts) else {
        return Ok(Verdict::Skipped);
    };
    let mut machine = Machine::new(Uarch::haswell(), 0);
    let lowered = run_monitored(&mut machine, insts, unroll, ftz_daz);
    let native = run_native(&bytes, unroll, ftz_daz, &lowered.pages);
    let what = || format!("unroll {unroll}, ftz/daz {ftz_daz}, block:\n{block}");
    match (lowered.result, native) {
        (_, Native::Collided) => Ok(Verdict::Skipped),
        (_, Native::Failed(why)) => Err(format!("native run failed ({why}); {}", what())),
        (Ok(()), Native::Exited(host, page)) => {
            let sim = Snapshot::of(machine.state());
            let masked = undefined_flags(insts, lowered.trace.len(), &lowered.pages, ftz_daz);
            let mut diffs = Vec::new();
            for r in 0..16 {
                if sim.gprs[r] != host.gprs[r] {
                    let reg = Gpr::from_number(r as u8).name(OpSize::Q);
                    diffs.push(format!(
                        "{reg}: sim {:#x}, host {:#x}",
                        sim.gprs[r], host.gprs[r]
                    ));
                }
                if sim.ymms[r] != host.ymms[r] {
                    diffs.push(format!(
                        "ymm{r}: sim {:02x?}, host {:02x?}",
                        sim.ymms[r], host.ymms[r]
                    ));
                }
            }
            for (k, (name, _)) in FLAGS.iter().enumerate() {
                if masked & 1 << k == 0 && sim.flags[k] != host.flags[k] {
                    diffs.push(format!(
                        "{name}: sim {}, host {}",
                        sim.flags[k], host.flags[k]
                    ));
                }
            }
            if let Some(&first) = lowered.pages.first() {
                let mut sim_page = vec![0u8; PAGE_SIZE as usize];
                machine
                    .memory()
                    .read(first, &mut sim_page)
                    .expect("mapped page");
                if let Some(at) = (0..sim_page.len()).find(|&i| sim_page[i] != page[i]) {
                    diffs.push(format!("shared page differs first at offset {at:#x}"));
                }
            }
            if diffs.is_empty() {
                Ok(Verdict::Agreed)
            } else {
                Err(format!("{}; {}", diffs.join("; "), what()))
            }
        }
        (
            Err(ExecFault::Seg(_) | ExecFault::GeneralProtection { .. }),
            Native::Signaled(sys::SIGSEGV),
        )
        | (Err(ExecFault::DivideError), Native::Signaled(sys::SIGFPE)) => Ok(Verdict::Agreed),
        (result, Native::Exited(..)) => {
            Err(format!("sim {result:?}, host exited cleanly; {}", what()))
        }
        (result, Native::Signaled(sig)) => {
            Err(format!("sim {result:?}, host signal {sig}; {}", what()))
        }
    }
}

/// Checks `block` at both production unroll factors, FTZ/DAZ off and on.
/// Returns whether any configuration was skipped.
fn check_all(block: &BasicBlock) -> Result<bool, String> {
    let mut skipped = false;
    for unroll in UNROLLS {
        for ftz_daz in [false, true] {
            skipped |= matches!(check(block, unroll, ftz_daz)?, Verdict::Skipped);
        }
    }
    Ok(skipped)
}

/// The prologue loads YMM registers, so the oracle needs AVX at least.
fn host_has_avx() -> bool {
    let avx = is_x86_feature_detected!("avx");
    if !avx {
        eprintln!("native oracle: the host lacks AVX; nothing compared");
    }
    avx
}

/// The generated corpus, every application profile: at least 1,000
/// blocks, under 2% skipped.
#[test]
fn generated_corpus_matches_host() {
    if !host_has_avx() {
        return;
    }
    let (mut blocks, mut skipped, mut failures) = (0usize, 0usize, Vec::new());
    for app in Application::ALL {
        let mut rng = SmallRng::seed_from_u64(0xB41E ^ app as u64);
        for _ in 0..BLOCKS_PER_APP {
            let block = generate_block(app, &mut rng);
            blocks += 1;
            match check_all(&block) {
                Ok(skip) => skipped += usize::from(skip),
                Err(why) => failures.push(format!("{}: {why}", app.name())),
            }
        }
    }
    eprintln!(
        "native oracle: {blocks} generated blocks, {skipped} skipped, {} diverged",
        failures.len()
    );
    assert!(
        failures.is_empty(),
        "{} divergences:\n{}",
        failures.len(),
        failures.join("\n\n")
    );
    assert!(blocks >= 1000, "only {blocks} blocks");
    assert!(
        skipped * 50 < blocks,
        "{skipped} of {blocks} blocks skipped"
    );
}

/// Hand-picked semantic corners: every faulting class, flag-preserving
/// shifts, division edge cases, subnormal-producing FP, conversions and
/// packed-shift edges.
const CORNERS: &[&str] = &[
    // Shift by zero preserves flags; rotates write only CF and OF.
    "add rax, rbx\nshl rcx, 0\nrol rdx, 1\nsar rax, 3",
    "sub rax, rbx\nror edx, 7\nrol rcx, 1",
    // Shift counts from CL, including counts that mask to zero.
    "mov ecx, 64\nshl rax, cl\nmov ecx, 3\nsar rbx, cl\nshr edx, cl",
    // Divide: quotient-bit latency inputs and the rdx fast path.
    "xor edx, edx\nmov eax, 1000\nmov ecx, 7\ndiv ecx",
    // Divide error (#DE) mid-block, second copy.
    "mov ecx, 2\nshr rcx, 1\ndiv ecx",
    // Signed division and sign extension.
    "mov rax, -100\ncqo\nmov ecx, 7\nidiv rcx\ncdq",
    // Push/pop against the unmapped-then-mapped stack page.
    "push rax\npop rbx\npush rcx",
    // Aligned vector access: #GP on the odd address.
    "movaps xmm0, xmmword ptr [rbx + 4]",
    // Subnormal FP with gradual underflow on and off.
    "mulps xmm0, xmm1\naddps xmm2, xmm0",
    "mov eax, 1\nmovd xmm1, eax\nmulss xmm1, xmm1\naddss xmm2, xmm1\nmulsd xmm3, xmm3",
    // Scalar FP merge semantics and conversions.
    "movss xmm0, dword ptr [rbx]\ncvtsi2ss xmm1, rax\ncvttss2si rdx, xmm1",
    "cvtsi2sd xmm4, ecx\nsqrtsd xmm4, xmm4\ncvttsd2si eax, xmm4\nucomisd xmm4, xmm3",
    // cmov reads its source even when the move is suppressed.
    "cmp rax, rbx\ncmove rcx, qword ptr [rbx]",
    // Packed integer widths and shifts at the immediate-count edge.
    "pslld xmm1, 33\npsrlq xmm2, 63\npmuludq xmm1, xmm2",
    "vpsrad ymm1, ymm2, 31\nvpshufd ymm3, ymm1, 0x1b\npshufb xmm4, xmm2",
    // Signed overflow out of add and sub, read back through seto.
    "mov eax, 0x80000000\nsub eax, 1\nseto cl\nmov ebx, 0x7fffffff\nsub ebx, -1",
    "mov edx, 0x7fffffff\nadd edx, 1\nseto sil\ncmp edx, 1",
    // Memory-destination RMW with carry chains.
    "add qword ptr [rbx], 1\nadc rax, rax\nsbb rdx, 3",
    // Bit counts and multiplies (flags partly undefined).
    "popcnt rax, rbx\nlzcnt ecx, edx\ntzcnt rsi, rdi",
    "imul rax, rbx, 3\nmul rcx\nimul edx",
    // Vector moves, broadcasts, FMA and masks.
    "vbroadcastss ymm0, dword ptr [rbx]\nvfmadd231ps ymm1, ymm0, ymm2\npmovmskb eax, xmm1",
    // OF after one-bit shifts; CF of SAR past the operand width.
    "mov ecx, -1\nshr ecx, 1",
    "mov edx, 0x40000000\nshl edx, 1",
    "mov eax, 0x80\nsar al, 12",
    // Byte division divides AX and leaves the remainder in AH.
    "mov eax, 1000\nmov ecx, 7\ndiv cl",
    "mov eax, -1000\nmov ecx, 7\nidiv cl\nmul cl\nimul cl",
    // Out-of-range and NaN conversions give the integer indefinite.
    "mov eax, 0x7f000000\nmovd xmm1, eax\ncvttss2si ecx, xmm1\ncvttss2si rdx, xmm1",
    "pcmpeqd xmm2, xmm2\ncvttsd2si eax, xmm2\ncvttss2si rsi, xmm2",
    // A 32-bit cmov zero-extends its destination even when it does not move.
    "mov rax, -1\ncmp rax, rax\ncmovne eax, ebx\ncmove rcx, rax",
    // Packed multiplies, compares, shuffles and unpacks.
    "pmaddwd xmm1, xmm2\npmullw xmm3, xmm1\npcmpgtd xmm4, xmm3\nunpcklps xmm5, xmm4\nshufps xmm6, xmm5, 0x4e",
    // Narrow shifts, rotates and bit counts past the operand width.
    "mov eax, 0x81\nrol al, 9\nror bx, 17\nshl cx, 20\nlzcnt dx, si",
    "psrad xmm1, 40\npsllq xmm2, 64\npandn xmm3, xmm1\ncvtdq2ps xmm4, xmm3",
    // Scalar FP merges, VEX forms and vector-GPR moves.
    "vaddss xmm1, xmm2, xmm3\nvsqrtsd xmm4, xmm4, xmm1\nmovq rax, xmm4\nmovd xmm5, dword ptr [rbx]",
    "vmulpd ymm1, ymm2, ymm3\nvfmadd231pd ymm4, ymm1, ymm2\nvdivps ymm5, ymm4, ymm0\nvpshufb ymm6, ymm5, ymm1",
    // NaN operands in min/max and compares.
    "pcmpeqd xmm0, xmm0\nminps xmm1, xmm0\nmaxps xmm0, xmm2\nucomiss xmm0, xmm1",
];

#[test]
fn semantic_corners_match_host() {
    if !host_has_avx() {
        return;
    }
    for text in CORNERS {
        let block = parse_block(text).unwrap();
        let skipped = check_all(&block).unwrap_or_else(|why| panic!("{why}"));
        assert!(!skipped, "corner skipped:\n{block}");
    }
}

/// Values at the overflow, carry-out and sign edges of 32- and 64-bit
/// arithmetic: 0, 1, −1, `i64::MIN`, `i64::MAX`, `0x7fffffff` and
/// `0x80000000`. As float bits they are zeros, NaNs and the smallest
/// subnormal.
const EDGES: [u64; 7] = [
    0,
    1,
    u64::MAX,
    1 << 63,
    (1 << 63) - 1,
    0x7fff_ffff,
    0x8000_0000,
];

/// `block` behind a prologue that moves [`EDGES`] into the registers it
/// reads: `mov r64, imm64` into each GPR it reads, other than RSP and
/// the registers it addresses memory through, then `movq xmm, r64` from
/// one of those GPRs into each vector register it reads. `seed` picks
/// the values. The prologue is part of the block, so every unrolled copy
/// starts again at the edges.
fn edge_seeded(block: &BasicBlock, seed: u64) -> BasicBlock {
    let insts = block.insts();
    let addressing: Vec<Gpr> = insts
        .iter()
        .filter_map(Inst::mem_operand)
        .flat_map(|m| m.base.into_iter().chain(m.index.map(|(r, _)| r)))
        .collect();
    let mut gprs: Vec<Gpr> = insts
        .iter()
        .flat_map(Inst::gpr_reads)
        .filter(|r| *r != Gpr::Rsp && !addressing.contains(r))
        .collect();
    gprs.sort_by_key(|r| r.number());
    gprs.dedup();
    let mut vecs: Vec<u8> = insts
        .iter()
        .flat_map(Inst::vec_reads)
        .map(|v| v.number())
        .collect();
    vecs.sort_unstable();
    vecs.dedup();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut text = String::new();
    for reg in &gprs {
        let value = EDGES[rng.gen_range(0..EDGES.len())];
        text += &format!("mov {}, {value:#x}\n", reg.name(OpSize::Q));
    }
    if !gprs.is_empty() {
        for x in vecs {
            let src = gprs[rng.gen_range(0..gprs.len())];
            text += &format!("movq xmm{x}, {}\n", src.name(OpSize::Q));
        }
    }
    let mut seeded = if text.is_empty() {
        Vec::new()
    } else {
        parse_block(&text)
            .expect("the prologue parses")
            .insts()
            .to_vec()
    };
    seeded.extend_from_slice(insts);
    BasicBlock::new(seeded)
}

/// One register-only integer op chosen by the bits of `pick`, at 32 or
/// 64 bits on registers other than RSP: the arithmetic, logic, shift and
/// multiply forms whose overflow, carry and sign results the edge
/// values push to their limits.
fn alu_inst_text(pick: u64) -> String {
    let size = if pick & 1 == 0 { OpSize::D } else { OpSize::Q };
    let reg = |bits: u64| {
        let n = (bits % 15) as u8;
        Gpr::from_number(n + u8::from(n >= Gpr::Rsp.number())).name(size)
    };
    let (d, s) = (reg(pick >> 8), reg(pick >> 16));
    let choose = |ops: &[&'static str]| ops[(pick >> 24) as usize % ops.len()];
    let imm = |imms: &[i64]| imms[(pick >> 32) as usize % imms.len()];
    match (pick >> 1) % 4 {
        0 => {
            let op = choose(&["add", "adc", "sub", "sbb", "cmp", "and", "xor", "imul"]);
            format!("{op} {d}, {s}")
        }
        1 => {
            let op = choose(&["add", "adc", "sub", "sbb", "cmp"]);
            format!("{op} {d}, {}", imm(&[1, -1, 0x7f, -0x80]))
        }
        2 => format!("{} {d}", choose(&["neg", "inc", "dec"])),
        _ => {
            let op = choose(&["shl", "shr", "sar", "rol", "ror"]);
            format!("{op} {d}, {}", imm(&[1, 7, 31]))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random blocks from every application profile.
    #[test]
    fn generated_blocks_match_host(seed in any::<u64>(), app_idx in 0usize..12) {
        if host_has_avx() {
            let block = generate_block(Application::ALL[app_idx], &mut SmallRng::seed_from_u64(seed));
            check_all(&block).map_err(TestCaseError::fail)?;
        }
    }

    /// Random blocks behind an edge-value prologue ([`edge_seeded`]), so
    /// that edge values reach the generated FP, vector and integer ops.
    #[test]
    fn edge_seeded_blocks_match_host(
        seed in any::<u64>(),
        app_idx in 0usize..12,
        values in any::<u64>(),
    ) {
        if host_has_avx() {
            let block = generate_block(Application::ALL[app_idx], &mut SmallRng::seed_from_u64(seed));
            check_all(&edge_seeded(&block, values)).map_err(TestCaseError::fail)?;
        }
    }

    /// Memory-heavy blocks whose pages fault in one at a time.
    #[test]
    fn faulting_blocks_match_host(picks in proptest::collection::vec(any::<u64>(), 1..6)) {
        let insts: Vec<Inst> = picks
            .iter()
            .map(|&p| parse_block(&faulting_inst_text(p)).unwrap().insts()[0].clone())
            .filter(|inst| native_bytes(std::slice::from_ref(inst)).is_some())
            .collect();
        if host_has_avx() && !insts.is_empty() {
            check_all(&BasicBlock::new(insts)).map_err(TestCaseError::fail)?;
        }
    }
}

proptest! {
    // A case is a few register ops, so many cases stay cheap; about one
    // in fifty ends in an overflowing `sub`.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Short integer op sequences ([`alu_inst_text`]) behind an
    /// edge-value prologue, so overflow, carry-out and sign edges reach
    /// the end-of-block flag diff: the last op's flags are the ones
    /// compared.
    #[test]
    fn edge_seeded_alu_ops_match_host(
        picks in proptest::collection::vec(any::<u64>(), 1..5),
        values in any::<u64>(),
    ) {
        let text: Vec<String> = picks.iter().map(|&p| alu_inst_text(p)).collect();
        let block = parse_block(&text.join("\n")).unwrap();
        if host_has_avx() {
            check_all(&edge_seeded(&block, values)).map_err(TestCaseError::fail)?;
        }
    }
}

/// The effective address of `m` against native registers.
fn native_addr(m: &MemRef, gprs: &[u64; 16]) -> u64 {
    let reg = |r: Gpr| gprs[r.number() as usize];
    let base = m.base.map_or(0, reg);
    let index = m.index.map_or(0, |(r, scale)| {
        reg(r).wrapping_mul(u64::from(scale.factor()))
    });
    base.wrapping_add(index).wrapping_add(m.disp as i64 as u64)
}

/// The native state after the first `n` dynamic instructions of `insts`.
fn native_prefix(insts: &[Inst], n: usize, pages: &[u64]) -> Snapshot {
    let bytes =
        native_bytes(&prefix_block(insts, n)).unwrap_or_else(|| panic!("prefix {n} of {insts:?}"));
    match run_native(&bytes, 1, false, pages) {
        Native::Exited(snapshot, _) => *snapshot,
        _ => panic!("the first {n} instructions of a clean prefix did not run clean"),
    }
}

/// Checks one dynamic instruction's recorded effects against the native
/// state just before it (and, for division, just after it).
fn check_effects(
    insts: &[Inst],
    d: usize,
    dyn_inst: &DynInst,
    pages: &[u64],
) -> Result<(), String> {
    let inst = &insts[d % insts.len()];
    let fx = dyn_inst.effects;
    if fx.load.is_none() && fx.store.is_none() && fx.div_quotient_bits.is_none() {
        return Ok(());
    }
    let before = native_prefix(insts, d, pages);
    let rsp = before.gprs[Gpr::Rsp.number() as usize];
    let operand = inst
        .mem_operand()
        .map(|m| (native_addr(m, &before.gprs), m.width));
    let (load, store) = match inst.mnemonic() {
        Mnemonic::Push => (None, Some((rsp.wrapping_sub(8), 8))),
        Mnemonic::Pop => (Some((rsp, 8)), None),
        _ => (
            operand.filter(|_| inst.loads_memory()),
            operand.filter(|_| inst.stores_memory()),
        ),
    };
    let got = |a: Option<bhive_sim::MemAccess>| a.map(|a| (a.vaddr, a.width));
    if got(fx.load) != load || got(fx.store) != store {
        return Err(format!(
            "`{inst}` at {d}: sim load {:x?} store {:x?}, host load {load:x?} store {store:x?}",
            got(fx.load),
            got(fx.store)
        ));
    }
    if let Some(bits) = fx.div_quotient_bits {
        let width = inst.width_bytes();
        let after = native_prefix(insts, d + 1, pages);
        let mask = u64::MAX >> (64 - 8 * u32::from(width));
        let mut quotient = after.gprs[Gpr::Rax.number() as usize] & mask;
        if inst.mnemonic() == Mnemonic::Idiv {
            let shift = 64 - 8 * u32::from(width);
            quotient = (((quotient << shift) as i64) >> shift) as u64;
        }
        let host_bits = 64 - quotient.leading_zeros();
        if bits != host_bits {
            return Err(format!(
                "`{inst}` at {d}: sim quotient bits {bits}, host {host_bits}"
            ));
        }
    }
    Ok(())
}

/// The corners' per-instruction effects (load and store addresses and
/// widths, quotient bits) against the native state of the prefix that
/// ends just before each instruction.
#[test]
fn corner_effects_match_host() {
    if !host_has_avx() {
        return;
    }
    for text in CORNERS {
        let block = parse_block(text).unwrap();
        let insts = block.insts();
        if !insts.iter().all(host_runs) {
            continue;
        }
        let mut machine = Machine::new(Uarch::haswell(), 0);
        let lowered = run_monitored(&mut machine, insts, 2, false);
        for (d, dyn_inst) in lowered.trace.iter().enumerate() {
            check_effects(insts, d, dyn_inst, &lowered.pages).unwrap_or_else(|why| panic!("{why}"));
        }
    }
}

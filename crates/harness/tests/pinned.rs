//! Every measurement over a generated corpus, pinned bit for bit: any
//! change to the simulator, the profiler or the noise model that moves a
//! single accepted cycle count, throughput ulp or failure detail on any
//! microarchitecture fails here.

use bhive_corpus::{Corpus, Scale};
use bhive_harness::{Measurement, ProfileConfig, ProfileFailure, Profiler};
use bhive_uarch::{builtin, UarchKind};

/// FNV-1a over each block's outcome, in corpus order.
fn measurement_hash(profiler: &Profiler, corpus: &Corpus) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for cb in corpus.blocks() {
        let outcome: Result<Measurement, ProfileFailure> = profiler.profile(&cb.block);
        match outcome {
            Ok(m) => {
                feed(&[0x00]);
                feed(&m.throughput.to_bits().to_le_bytes());
                for set in [&m.lo, &m.hi] {
                    feed(&set.unroll.to_le_bytes());
                    feed(&set.accepted_cycles.to_le_bytes());
                }
                feed(&m.misaligned_refs.to_le_bytes());
                feed(&m.subnormal_events.to_le_bytes());
            }
            Err(failure) => {
                feed(&[0xff]);
                feed(failure.category().as_bytes());
                feed(format!("{failure:?}").as_bytes());
            }
        }
    }
    hash
}

#[test]
fn measurements_are_pinned() {
    let corpus = Corpus::generate(Scale::PerApp(8), 5);
    assert_eq!(corpus.blocks().len(), 80);
    let expected: [(UarchKind, u64); 3] = [
        (UarchKind::IvyBridge, 0x5ed2_1669_6dad_dcf4),
        (UarchKind::Haswell, 0x6dbb_2f2f_1ba4_1614),
        (UarchKind::Skylake, 0x4f64_e18b_eeea_890d),
    ];
    for (kind, pinned) in expected {
        let profiler = Profiler::new(builtin(kind), ProfileConfig::bhive());
        let got = measurement_hash(&profiler, &corpus);
        assert_eq!(got, pinned, "measurements on {kind:?}: {got:#x}");
    }
}

//! The seeded request generator.
//!
//! Every field of every request — the EPCC construct, the priority lane,
//! the NPB kernel order — is an independent draw from the in-tree
//! `mca_sync` SplitMix64 PRNG, so one `--seed` fixes the whole input and
//! no field's choice depends on another's (a rotation keyed on a shared
//! counter can silently starve one combination of fields).

use mca_sync::SmallRng;
use romp_epcc::Construct;
use romp_npb::NpbKernel;
use romp_serve::JobSpec;

/// The six EPCC constructs the serving path runs as jobs, with their
/// draw weights.  Barrier, Single and Critical open one region per job;
/// Parallel, ParallelFor and Reduction open one per inner repetition and
/// cost several times more.  With equal weights the median request would
/// sit in the gap between those two groups and jump between them with
/// the sampling noise of the mix; weighting the one-region group 2:1
/// puts the median inside it and the p99 inside the other.
pub const SERVING_CONSTRUCTS: [(Construct, u64); 6] = [
    (Construct::Barrier, 2),
    (Construct::Parallel, 1),
    (Construct::Reduction, 1),
    (Construct::Critical, 2),
    (Construct::Single, 2),
    (Construct::ParallelFor, 1),
];

/// The NPB kernels the benchmark runs (EP is left out: one region and
/// one reduction around seconds of RNG arithmetic no runtime layer
/// touches).
pub const NPB_KERNELS: [NpbKernel; 4] =
    [NpbKernel::Cg, NpbKernel::Mg, NpbKernel::Ft, NpbKernel::Is];

/// Team size of every job and kernel.
pub const TEAM: u8 = 2;
/// Construct executions per EPCC job.
pub const INNER_REPS: u16 = 8;
/// Deadline carried by Hi-lane requests, milliseconds.
pub const HI_DEADLINE_MS: u32 = 150;

/// Wire priority bytes.
pub const NORMAL: u8 = 0;
pub const HI: u8 = 1;
pub const BATCH: u8 = 2;

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenRequest {
    pub spec: JobSpec,
    pub priority: u8,
    pub deadline_ms: u32,
}

/// Lane mix: `None` puts every request on the Normal lane; `Some(p)`
/// sends `p` percent to Hi (with [`HI_DEADLINE_MS`]) and the rest to
/// Batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneMix {
    pub hi_pct: Option<u64>,
}

/// A deterministic request stream: one per client connection.
pub struct Generator {
    rng: SmallRng,
    mix: LaneMix,
}

/// The PRNG for stream `stream` of run seed `seed`.
pub fn stream_rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

impl Generator {
    /// Stream `stream` (a client index) of run seed `seed`.
    pub fn new(seed: u64, stream: u64, mix: LaneMix) -> Generator {
        Generator {
            rng: stream_rng(seed, stream),
            mix,
        }
    }

    /// The next request.
    pub fn next_request(&mut self) -> GenRequest {
        let total: u64 = SERVING_CONSTRUCTS.iter().map(|(_, w)| w).sum();
        let mut pick = self.rng.gen_range(0, total);
        let mut construct = SERVING_CONSTRUCTS[0].0;
        for &(c, w) in &SERVING_CONSTRUCTS {
            if pick < w {
                construct = c;
                break;
            }
            pick -= w;
        }
        let spec = JobSpec::Epcc {
            construct,
            threads: TEAM,
            inner_reps: INNER_REPS,
        };
        let (priority, deadline_ms) = match self.mix.hi_pct {
            None => (NORMAL, 0),
            Some(p) if self.rng.gen_range(0, 100) < p => (HI, HI_DEADLINE_MS),
            Some(_) => (BATCH, 0),
        };
        GenRequest {
            spec,
            priority,
            deadline_ms,
        }
    }
}

/// A seeded order of the NPB kernels (Fisher–Yates).
pub fn kernel_order(rng: &mut SmallRng) -> [NpbKernel; 4] {
    let mut k = NPB_KERNELS;
    for i in (1..k.len()).rev() {
        k.swap(i, rng.gen_index(0, i + 1));
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    fn construct_of(r: &GenRequest) -> Construct {
        match r.spec {
            JobSpec::Epcc { construct, .. } => construct,
            _ => panic!("serving requests are EPCC jobs"),
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mix = LaneMix { hi_pct: Some(10) };
        let a: Vec<_> = {
            let mut g = Generator::new(7, 0, mix);
            (0..500).map(|_| g.next_request()).collect()
        };
        let mut g = Generator::new(7, 0, mix);
        let b: Vec<_> = (0..500).map(|_| g.next_request()).collect();
        assert_eq!(a, b);
        let mut other = Generator::new(8, 0, mix);
        let c: Vec<_> = (0..500).map(|_| other.next_request()).collect();
        assert_ne!(a, c);
        let mut stream1 = Generator::new(7, 1, mix);
        let d: Vec<_> = (0..500).map(|_| stream1.next_request()).collect();
        assert_ne!(a, d);
    }

    #[test]
    fn every_construct_meets_every_lane() {
        // Fields are drawn independently, so each construct appears on
        // both lanes and at both parities of the request index.
        let mut g = Generator::new(1, 0, LaneMix { hi_pct: Some(10) });
        let mut seen = std::collections::HashSet::new();
        let mut per_construct = std::collections::HashMap::new();
        let mut hi = 0;
        let n = 36_000;
        for k in 0..n {
            let r = g.next_request();
            *per_construct
                .entry(construct_of(&r).label())
                .or_insert(0u64) += 1;
            if r.priority == HI {
                hi += 1;
                assert_eq!(r.deadline_ms, HI_DEADLINE_MS);
            } else {
                assert_eq!((r.priority, r.deadline_ms), (BATCH, 0));
            }
            seen.insert((construct_of(&r).label(), r.priority, k % 2));
        }
        assert_eq!(seen.len(), SERVING_CONSTRUCTS.len() * 2 * 2);
        let share = hi as f64 / n as f64;
        assert!((0.08..0.12).contains(&share), "hi share {share}");
        // Draw shares follow the weights (2/9 and 1/9).
        for (c, w) in SERVING_CONSTRUCTS {
            let got = per_construct[c.label()] as f64 / n as f64;
            let want = w as f64 / 9.0;
            assert!((got - want).abs() < 0.01, "{}: {got} vs {want}", c.label());
        }
    }

    #[test]
    fn normal_mix_stays_on_the_normal_lane() {
        let mut g = Generator::new(3, 0, LaneMix { hi_pct: None });
        for _ in 0..1000 {
            let r = g.next_request();
            assert_eq!((r.priority, r.deadline_ms), (NORMAL, 0));
        }
    }

    #[test]
    fn kernel_order_is_a_seeded_permutation_reaching_every_slot() {
        let mut rng = stream_rng(5, 99);
        let mut first = std::collections::HashSet::new();
        for _ in 0..200 {
            let order = kernel_order(&mut rng);
            let mut names: Vec<_> = order.iter().map(|k| k.name()).collect();
            first.insert(names[0]);
            names.sort_unstable();
            assert_eq!(names, ["CG", "FT", "IS", "MG"]);
        }
        assert_eq!(first.len(), NPB_KERNELS.len());
        let a = kernel_order(&mut stream_rng(5, 1));
        assert_eq!(a, kernel_order(&mut stream_rng(5, 1)));
    }
}

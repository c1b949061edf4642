//! The paper's own measurements, run in the benchmark process on both
//! backends: Table I (EPCC syncbench overheads, MCA vs native) and the
//! NPB kernels CG, MG, FT and IS at class W on the MCA backend.

use std::time::{Duration, Instant};

use mca_sync::SmallRng;
use romp::{BackendKind, Config, Runtime};
use romp_epcc::{Construct, EpccConfig};
use romp_npb::Class;

use crate::gen::{kernel_order, NPB_KERNELS, TEAM};
use crate::host::{steal_since, CpuTimes};
use crate::spans::Recorder;
use crate::stats::{geomean, least_disturbed, median};

/// EPCC outer repetitions per measurement (one overhead sample each).
const OUTER_REPS: usize = 8;
/// EPCC inner repetitions per sample.
const INNER_REPS: usize = 64;

/// A romp runtime with the benchmark's pool size on `kind`, its pool up
/// (one empty region run).
pub fn ready_runtime(kind: BackendKind) -> Result<Runtime, String> {
    let rt = Runtime::with_config(
        Config::default()
            .with_backend(kind)
            .with_num_threads(usize::from(TEAM)),
    )
    .map_err(|e| format!("{} runtime: {e}", kind.label()))?;
    rt.parallel(usize::from(TEAM), |_| {});
    Ok(rt)
}

/// Metric-name stem of a Table I row.
pub fn construct_key(c: Construct) -> &'static str {
    match c {
        Construct::Parallel => "parallel",
        Construct::For => "for",
        Construct::ParallelFor => "parallel_for",
        Construct::Barrier => "barrier",
        Construct::Single => "single",
        Construct::Critical => "critical",
        Construct::Reduction => "reduction",
        Construct::Lock => "lock",
    }
}

/// One Table I row: the median EPCC overhead over the rounds measured.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub construct: Construct,
    pub native_us: f64,
    pub mca_us: f64,
}

/// Table I at team size [`TEAM`].
#[derive(Debug, Clone)]
pub struct TableI {
    pub cells: Vec<Cell>,
    pub rounds: usize,
}

impl TableI {
    /// Geomean of MCA/native over the seven constructs.
    pub fn ratio_geomean(&self) -> Option<f64> {
        let ratios: Vec<f64> = self.cells.iter().map(|c| c.mca_us / c.native_us).collect();
        geomean(&ratios)
    }

    /// Geomean of the absolute MCA overheads, microseconds.
    pub fn mca_geomean(&self) -> Option<f64> {
        let v: Vec<f64> = self.cells.iter().map(|c| c.mca_us).collect();
        geomean(&v)
    }

    /// Cells that are not finite and positive on both backends.
    pub fn bad_cells(&self) -> Vec<String> {
        let ok = |v: f64| v.is_finite() && v > 0.0;
        self.cells
            .iter()
            .filter(|c| !ok(c.native_us) || !ok(c.mca_us))
            .map(|c| {
                format!(
                    "{}: native {} us, mca {} us",
                    c.construct.label(),
                    c.native_us,
                    c.mca_us
                )
            })
            .collect()
    }
}

/// Table I measured one fresh runtime pair at a time, so that the pairs
/// can be spread over a run.
pub struct Table1Runs {
    cfg: EpccConfig,
    /// Per construct: each pair's median native and MCA overhead.
    per_pair: Vec<[Vec<f64>; 2]>,
    rounds: usize,
}

impl Table1Runs {
    pub fn new() -> Table1Runs {
        Table1Runs {
            cfg: EpccConfig {
                threads: usize::from(TEAM),
                outer_reps: OUTER_REPS,
                inner_reps: INNER_REPS,
                delay_len: romp_epcc::calibrate_delay(100),
            },
            per_pair: vec![[Vec::new(), Vec::new()]; Construct::table1().len()],
            rounds: 0,
        }
    }

    /// Measure one fresh runtime pair for `budget`: one discarded
    /// warm-up round, then rounds (alternating which backend goes first)
    /// until the budget is spent, at least three.  The pair's figure for
    /// a cell is its median over the rounds with the least host steal
    /// (`least_disturbed`).
    pub fn pair(&mut self, budget: Duration, rec: &mut Recorder) -> Result<(), String> {
        let cfg = &self.cfg;
        let constructs = Construct::table1();
        let round = |rec: &mut Recorder,
                     native: &Runtime,
                     mca: &Runtime,
                     mca_first: bool,
                     samples: &mut Vec<[Vec<f64>; 2]>| {
            for (i, &c) in constructs.iter().enumerate() {
                let mut one = |rt: &Runtime, name: &'static str| {
                    rec.time(name, 0, || romp_epcc::measure(rt, c, cfg).overhead_us)
                };
                let (n, m) = if mca_first {
                    let m = one(mca, "romp.epcc.measure.mca");
                    (one(native, "romp.epcc.measure.native"), m)
                } else {
                    let n = one(native, "romp.epcc.measure.native");
                    (n, one(mca, "romp.epcc.measure.mca"))
                };
                samples[i][0].push(n);
                samples[i][1].push(m);
            }
        };
        let native = ready_runtime(BackendKind::Native)?;
        let mca = ready_runtime(BackendKind::Mca)?;
        let mut warm = vec![[Vec::new(), Vec::new()]; constructs.len()];
        round(rec, &native, &mca, false, &mut warm);
        let mut samples = vec![[Vec::new(), Vec::new()]; constructs.len()];
        let mut steals = Vec::new();
        let t0 = Instant::now();
        while steals.len() < 3 || t0.elapsed() < budget {
            let cpu0 = CpuTimes::now();
            round(rec, &native, &mca, steals.len() % 2 == 1, &mut samples);
            steals.push(steal_since(cpu0));
        }
        self.rounds += steals.len();
        let indices: Vec<usize> = (0..steals.len()).collect();
        let kept = least_disturbed(&indices, |&i| steals[i], |_| true);
        let med_of = |v: &[f64]| median(&kept.iter().map(|&&i| v[i]).collect::<Vec<_>>());
        for (acc, [n, m]) in self.per_pair.iter_mut().zip(&samples) {
            acc[0].push(med_of(n).unwrap_or(f64::NAN));
            acc[1].push(med_of(m).unwrap_or(f64::NAN));
        }
        Ok(())
    }

    /// Pairs measured so far.
    pub fn pairs(&self) -> usize {
        self.per_pair[0][0].len()
    }

    /// Each cell: the median over pairs of the pair's figure, so one
    /// pair whose threads landed badly does not move the result.
    pub fn finish(self) -> TableI {
        let cells = Construct::table1()
            .iter()
            .zip(&self.per_pair)
            .map(|(&construct, [n, m])| Cell {
                construct,
                native_us: median(n).unwrap_or(f64::NAN),
                mca_us: median(m).unwrap_or(f64::NAN),
            })
            .collect();
        TableI {
            cells,
            rounds: self.rounds,
        }
    }
}

/// One NPB kernel's medians over the sets run.
#[derive(Debug, Clone)]
pub struct KernelRow {
    pub name: &'static str,
    pub time_s: f64,
    pub mops: f64,
}

/// The NPB phase's results.
#[derive(Debug, Clone)]
pub struct Npb {
    /// Summed over the kernels: each kernel's median time over the sets
    /// with the least host steal (`least_disturbed`), seconds.
    pub time_s: f64,
    /// Each kernel's medians over those sets.
    pub rows: Vec<KernelRow>,
    /// Summed verified time of each set, seconds, and the share of the
    /// host's CPU time stolen while its class W kernels ran.
    pub set_times: Vec<(f64, Option<f64>)>,
    pub attempted: u64,
    pub failed: Vec<String>,
    /// Median per set of the MCA runtime's barrier and steal counters.
    pub barriers: f64,
    pub steals_local: f64,
    pub steals_remote: f64,
}

/// One verified set of the four kernels at class W.
struct NpbSet {
    /// `(kernel, wall seconds, Mop/s)`.
    kernels: Vec<(&'static str, f64, f64)>,
    steal: Option<f64>,
    barriers: f64,
    steals_local: f64,
    steals_remote: f64,
}

/// Sets of NPB CG, MG, FT and IS at class W on the MCA backend, run a
/// few at a time so that they can be spread over a run.
#[derive(Default)]
pub struct NpbRuns {
    sets: Vec<NpbSet>,
    attempted: u64,
    failed: Vec<String>,
    /// Time spent in `sets` so far.
    spent: Duration,
}

impl NpbRuns {
    /// Run sets until the time spent in this method over the whole run
    /// reaches `until` (at least one set per call).  Each set runs in a
    /// seeded order on a fresh MCA runtime after a discarded class S
    /// warm-up set on it.  Stops at the first set that fails
    /// verification.
    pub fn sets(
        &mut self,
        rng: &mut SmallRng,
        until: Duration,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let threads = usize::from(TEAM);
        let t0 = Instant::now();
        let mut first = true;
        while first || self.spent + t0.elapsed() < until {
            first = false;
            let mca = ready_runtime(BackendKind::Mca)?;
            for k in kernel_order(rng) {
                rec.time("npb.warmup", 0, || k.run(&mca, threads, Class::S));
            }
            let before = mca.stats();
            let cpu0 = CpuTimes::now();
            let mut kernels = Vec::new();
            for k in kernel_order(rng) {
                self.attempted += 1;
                let r = rec.time("npb.kernel", 0, || k.run(&mca, threads, Class::W));
                if r.verified() {
                    kernels.push((r.name, r.wall_s, r.mops));
                } else {
                    self.failed.push(format!(
                        "NPB {}.W failed verification: {:?}",
                        r.name, r.verification
                    ));
                }
            }
            let steal = steal_since(cpu0);
            let after = mca.stats();
            if kernels.len() < NPB_KERNELS.len() {
                break;
            }
            self.sets.push(NpbSet {
                kernels,
                steal,
                barriers: (after.barriers - before.barriers) as f64,
                steals_local: (after.steals_local - before.steals_local) as f64,
                steals_remote: (after.steals_remote - before.steals_remote) as f64,
            });
        }
        self.spent += t0.elapsed();
        Ok(())
    }

    pub fn finish(self) -> Npb {
        let med = |v: Vec<f64>| median(&v).unwrap_or(f64::NAN);
        let kept = least_disturbed(&self.sets, |s| s.steal, |_| true);
        let mut rows: Vec<KernelRow> = NPB_KERNELS
            .iter()
            .map(|k| {
                let of = |f: fn(&(&str, f64, f64)) -> f64| {
                    med(kept
                        .iter()
                        .flat_map(|s| s.kernels.iter().filter(|x| x.0 == k.name()).map(f))
                        .collect())
                };
                KernelRow {
                    name: k.name(),
                    time_s: of(|x| x.1),
                    mops: of(|x| x.2),
                }
            })
            .collect();
        rows.sort_by_key(|r| r.name);
        Npb {
            time_s: rows.iter().map(|r| r.time_s).sum(),
            rows,
            set_times: self
                .sets
                .iter()
                .map(|s| (s.kernels.iter().map(|x| x.1).sum(), s.steal))
                .collect(),
            attempted: self.attempted,
            failed: self.failed,
            barriers: med(self.sets.iter().map(|s| s.barriers).collect()),
            steals_local: med(self.sets.iter().map(|s| s.steals_local).collect()),
            steals_remote: med(self.sets.iter().map(|s| s.steals_remote).collect()),
        }
    }
}

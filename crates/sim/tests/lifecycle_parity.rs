//! The simulator runs production's job-lifecycle bookkeeping, not a
//! copy of it.  Two facts only the shared bookkeeping gets right: the
//! per-lane depth gauges are refreshed when the dispatcher pops (so an
//! empty queue reads 0 at quiescence), and every fired deadline counts
//! as a scheduling miss.

use romp_serve::session::ServeCore;
use romp_sim::{Scenario, World};

#[test]
fn quiescent_bookkeeping_matches_production() {
    for sc in Scenario::all() {
        for seed in [3u64, 77, 4242] {
            let name = sc.name;
            let mut world = World::new(sc.clone(), seed, false);
            let (violations, _) = world.run();
            assert!(
                violations.is_empty(),
                "{name} seed {seed} violated invariants: {violations:?}"
            );
            let snap = world.core().registry().snapshot();
            for lane in ["hi", "normal", "batch"] {
                let gauge = format!("serve.sched.depth.{lane}");
                let depth = snap
                    .gauges
                    .iter()
                    .find(|(n, _)| *n == gauge)
                    .map(|(_, v)| *v);
                assert_eq!(depth, Some(0), "{name} seed {seed}: {gauge}");
            }
            let fired = snap.counter("watchdog.deadline_fired");
            let missed = snap.counter("serve.sched.deadline_miss");
            assert_eq!(
                missed, fired,
                "{name} seed {seed}: deadline misses vs fired deadlines"
            );
        }
    }
}

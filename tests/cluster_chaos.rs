//! Cluster supervision under fire: SIGKILL a worker process mid-load
//! and prove zero lost jobs (orphans retried on the survivor, worker
//! respawned), then cycle the whole pool with an operator rolling
//! restart while load is still running.  The process-level companion to
//! `serve_chaos.rs` (DESIGN.md §5.12).  Also checks that a worker
//! reports the job's own execution time back through the router.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use romp::{Config, Runtime};
use romp_cluster::{ClusterConfig, Router};
use romp_serve::{Client, DiagSpec, Dispatch, JobLimits, JobSpec, ServeConfig, Server};
use romp_validation::serveload::drive_mixed_load;

/// Locate the `romp-worker` binary for the active profile, building it
/// if the test run didn't (root `cargo test` compiles dependency crates
/// as libraries only).
fn ensure_worker_bin() -> PathBuf {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let target = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target");
    let bin = target.join(profile).join("romp-worker");
    if bin.is_file() {
        return bin;
    }
    let mut cmd = Command::new(env!("CARGO"));
    cmd.current_dir(env!("CARGO_MANIFEST_DIR")).args([
        "build",
        "--offline",
        "-p",
        "romp-cluster",
        "--bin",
        "romp-worker",
    ]);
    if !cfg!(debug_assertions) {
        cmd.arg("--release");
    }
    let status = cmd.status().expect("run cargo build for romp-worker");
    assert!(status.success(), "building romp-worker failed");
    assert!(bin.is_file(), "romp-worker missing after build: {bin:?}");
    bin
}

fn start_cluster(workers: usize, limits: JobLimits) -> (romp_serve::ServerHandle, Arc<Router>) {
    let router = Router::new(ClusterConfig {
        workers,
        worker_bin: Some(ensure_worker_bin()),
        worker_threads: 2,
        heartbeat_ms: 20,
        heartbeat_misses: 15,
        ..ClusterConfig::default()
    })
    .expect("router setup");
    let rt = Runtime::with_config(Config::default().with_num_threads(2)).unwrap();
    let handle = Server::start_with_dispatch(
        "127.0.0.1:0",
        ServeConfig {
            queue_cap: 64,
            limits,
            ..ServeConfig::default()
        },
        rt,
        Arc::clone(&router) as Arc<dyn Dispatch>,
    )
    .expect("server start");
    (handle, router)
}

fn wait_until(what: &str, timeout: Duration, mut ok: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !ok() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn sigkill_worker_mid_load_loses_nothing() {
    let (handle, router) = start_cluster(2, JobLimits::default());
    let addr = handle.addr();
    wait_until("both workers up", Duration::from_secs(30), || {
        router.workers_up() == 2
    });

    // A load wave big enough to straddle the kill and the respawn.
    let loader = std::thread::spawn(move || drive_mixed_load(addr, 4, 25));
    std::thread::sleep(Duration::from_millis(300));

    // SIGKILL one live worker — no goodbye, no flush; the router sees
    // the wire channel die and must retry its in-flight jobs elsewhere.
    let victim = router
        .worker_pids()
        .into_iter()
        .find(|&pid| pid != 0)
        .expect("a live worker to kill");
    let killed = Command::new("kill")
        .args(["-9", &victim.to_string()])
        .status()
        .expect("spawn kill");
    assert!(killed.success(), "kill -9 {victim} failed");

    let report = loader.join().expect("load wave panicked");
    assert_eq!(report.lost(), 0, "worker kill lost jobs: {report:?}");
    assert_eq!(
        report.failed, 0,
        "retried jobs must still verify: {report:?}"
    );

    assert!(router.restarts() >= 1, "the killed worker was respawned");
    wait_until("pool back to strength", Duration::from_secs(30), || {
        router.workers_up() == 2
    });
    assert!(
        !router.worker_pids().contains(&victim),
        "the victim pid must be gone from the pool"
    );

    // Drain: nothing dropped, no rmem result slot leaked.
    let mut c = Client::connect(addr).unwrap();
    c.shutdown().unwrap();
    let drain = handle.join();
    assert_eq!(drain.dropped, 0, "drain dropped jobs: {drain:?}");
    assert_eq!(drain.rmem_leaked, 0, "rmem slots leaked: {drain:?}");
    assert_eq!(
        drain.completed + drain.cancelled + drain.timed_out + drain.failed,
        drain.accepted
    );
}

#[test]
fn rolling_restart_under_load_loses_nothing() {
    let (handle, router) = start_cluster(2, JobLimits::default());
    let addr = handle.addr();
    wait_until("both workers up", Duration::from_secs(30), || {
        router.workers_up() == 2
    });
    let before: Vec<u32> = router.worker_pids();

    let loader = std::thread::spawn(move || drive_mixed_load(addr, 4, 20));
    std::thread::sleep(Duration::from_millis(200));

    // Operator-triggered rolling restart over the client protocol.
    let mut c = Client::connect(addr).unwrap();
    let n = c.restart().expect("restart accepted");
    assert_eq!(n, 2, "restart reports the pool width");

    let report = loader.join().expect("load wave panicked");
    assert_eq!(report.lost(), 0, "rolling restart lost jobs: {report:?}");
    assert_eq!(report.failed, 0, "rolling restart failed jobs: {report:?}");

    // Every worker was cycled: two restarts, all pids fresh, pool whole.
    wait_until("both workers cycled", Duration::from_secs(60), || {
        router.restarts() >= 2 && router.workers_up() == 2
    });
    let after = router.worker_pids();
    for pid in &before {
        assert!(
            !after.contains(pid),
            "stale worker pid {pid} survived the rolling restart"
        );
    }

    c.shutdown().unwrap();
    let drain = handle.join();
    assert_eq!(drain.dropped, 0, "drain dropped jobs: {drain:?}");
    assert_eq!(drain.rmem_leaked, 0, "rmem slots leaked: {drain:?}");
}

/// `wall_us` is the job's run on the worker, not the worker's
/// bookkeeping around it: a 50 ms spin reports at least 50 ms.
#[test]
fn worker_reports_the_jobs_own_exec_time() {
    let (handle, router) = start_cluster(
        1,
        JobLimits {
            allow_diag: true,
            ..JobLimits::default()
        },
    );
    wait_until("the worker up", Duration::from_secs(30), || {
        router.workers_up() == 1
    });
    let mut c = Client::connect(handle.addr()).unwrap();
    let spec = JobSpec::Diag {
        diag: DiagSpec::Spin { ms: 50 },
        threads: 2,
    };
    let (id, _) = c
        .submit_with_retry(&spec, Duration::from_secs(30))
        .unwrap()
        .expect("not draining");
    let out = c.wait_result(id, Duration::from_secs(60)).unwrap();
    assert!(out.ok, "spin job failed: {}", out.detail);
    assert!(
        out.wall_us >= 50_000,
        "worker reported {} us for a 50 ms job",
        out.wall_us
    );
    c.shutdown().unwrap();
    let report = handle.join();
    assert_eq!(report.dropped, 0);
    assert_eq!(report.rmem_leaked, 0);
}

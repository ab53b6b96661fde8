//! The parallel experiment runner must be a pure wall-clock optimisation:
//! same tables, same run report, byte for byte, at any worker count.

use bench::experiments::{pool_map, run_all_with};
use bench::report;

#[test]
fn pool_map_preserves_job_order() {
    let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..20usize)
        .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
        .collect();
    let expect: Vec<usize> = (0..20usize).map(|i| i * i).collect();
    assert_eq!(pool_map(jobs, 4), expect);
}

#[test]
fn pool_map_handles_degenerate_thread_counts() {
    for threads in [0, 1, 7, 64] {
        let jobs: Vec<Box<dyn FnOnce() -> i32 + Send>> = (0..3)
            .map(|i| Box::new(move || i - 1) as Box<dyn FnOnce() -> i32 + Send>)
            .collect();
        assert_eq!(pool_map(jobs, threads), vec![-1, 0, 1], "threads={threads}");
    }
    let none: Vec<Box<dyn FnOnce() -> i32 + Send>> = Vec::new();
    assert_eq!(pool_map(none, 8), Vec::<i32>::new());
}

/// FNV-1a 64 over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn parallel_run_report_is_byte_identical_to_serial() {
    report::enable();
    let serial_tables = run_all_with(1);
    let serial_report = report::build("all_experiments", &serial_tables);
    // The pretty text is what `all_experiments` writes to
    // `target/run-reports/all_experiments.json`; its bytes are pinned so a
    // change to the value tree or the renderer cannot alter a report
    // unnoticed.
    let pretty = serde_json::to_string_pretty(&serial_report).expect("serializable");
    assert_eq!(
        (pretty.len(), fnv1a64(pretty.as_bytes())),
        (14_375_102, 0xfe4a_2b58_9cac_7601),
        "all_experiments run report bytes changed"
    );
    let serial = serde_json::to_string(&serial_report).expect("serializable");
    let parallel_tables = run_all_with(4);
    let parallel = serde_json::to_string(&report::build("all_experiments", &parallel_tables))
        .expect("serializable");
    assert_eq!(
        serde_json::to_string(&serial_tables).unwrap(),
        serde_json::to_string(&parallel_tables).unwrap(),
        "tables diverged between serial and parallel runs"
    );
    assert_eq!(serial, parallel, "run reports diverged");
}

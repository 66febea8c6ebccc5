//! Benchmark the memory timeline walker: production-shaped 61-layer ×
//! PP16 timelines under both schedules, plus the 2048-GPU frontier
//! search. Writes `BENCH_memtl.json` at the repo root — a small
//! machine-readable events/sec artifact so timeline-walker regressions
//! show up in diffs.

use dsv3_bench::{time_ns, write_artifact, REPO_ROOT};
use dsv3_core::memtl::{largest_fitting, simulate, FrontierQuery, GpuSpec, MemPlan, ScheduleKind};
use dsv3_core::model::zoo;
use std::path::Path;

fn main() {
    let cfg = zoo::deepseek_v3();
    let dualpipe = MemPlan::deepseek_v3_production();
    let one_f_one_b = MemPlan { schedule: ScheduleKind::OneFOneB, ..dualpipe };
    let query = FrontierQuery { gpus: 2048, spec: GpuSpec::h800() };

    // Events walked per second per scenario.
    let mut metrics = Vec::new();
    for (name, plan) in
        [("dualpipe_61l_pp16_120micro", &dualpipe), ("1f1b_61l_pp16_120micro", &one_f_one_b)]
    {
        let events = simulate(&cfg, plan).chunk_events;
        let ns = time_ns(5, 8, || simulate(&cfg, plan));
        let eps = events as f64 / (ns / 1e9);
        metrics.push((format!("{name}_chunk_events"), events.to_string()));
        metrics.push((format!("{name}_walk_ns"), format!("{ns:.0}")));
        metrics.push((format!("{name}_events_per_sec"), format!("{eps:.0}")));
    }
    let frontier_ns = time_ns(3, 2, || largest_fitting(&cfg, &dualpipe, &query));
    metrics.push(("frontier_2048_gpus_ns".to_string(), format!("{frontier_ns:.0}")));

    let path =
        write_artifact(Path::new(REPO_ROOT), "memtl", &metrics).expect("write BENCH_memtl.json");
    println!("wrote {}", path.display());
}

//! Dropping a cluster joins its phase-1 worker threads. The check reads
//! the process's thread count, which any other test running alongside
//! would move, so this binary holds exactly one test.

use kwt_rv32::{Cluster, Machine, Platform};
use kwt_rvasm::{Asm, Inst, Reg};
use std::time::{Duration, Instant};

/// The `Threads:` line of `/proc/self/status`, where that file exists.
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line["Threads:".len()..].trim().parse().ok()
}

#[test]
fn dropped_clusters_leave_no_threads() {
    let Some(start) = threads() else {
        return; // no procfs: nothing to count
    };
    let mut asm = Asm::new(0, 0x8000);
    asm.here("entry");
    asm.li(Reg::T1, 0x9000);
    asm.emit(Inst::Sw {
        rs2: Reg::T1,
        rs1: Reg::T1,
        imm: 0,
    });
    asm.emit(Inst::Ebreak);
    let template =
        Machine::load(&asm.finish().expect("assembles"), Platform::ibex()).expect("fits");
    let mut clusters: Vec<Cluster> = (0..16).map(|_| Cluster::replicate(&template, 4)).collect();
    for c in &mut clusters {
        assert!(c.run_all(1_000).results.iter().all(Result::is_ok));
    }
    let up = threads().expect("procfs is still there");
    assert!(
        up >= start + 16,
        "16 multi-hart runs spawned {} threads",
        up - start
    );
    drop(clusters);
    // a joined thread leaves the count a moment after `join` returns
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != Some(start) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        threads(),
        Some(start),
        "threads left after dropping 16 clusters"
    );
}

//! **Ablation** — NAND generation scaling of the GC penalty.
//!
//! The paper's motivation (Sec. 1): program time and block size grow with
//! flash density — 0.2 ms / 64 pages-per-block at 130 nm vs 2.3 ms /
//! 384 pages-per-block at 25 nm — so the cost of a GC stall grows across
//! generations and BGC timing matters ever more. This experiment runs the
//! same workload on all three device generations and reports the IOPS gap
//! between No-BGC (all stalls foreground) and A-BGC (all hidden): the gap
//! should widen with density.

use jitgc_bench::{format_table, Experiment, PolicyKind};
use jitgc_ftl::FtlConfig;
use jitgc_nand::NandTiming;
use jitgc_workload::BenchmarkKind;

fn main() {
    let generations = [
        ("130nm", NandTiming::legacy_130nm(), 64u32),
        ("20nm", NandTiming::mlc_20nm(), 128),
        ("25nm", NandTiming::dense_25nm(), 384),
    ];
    let mut rows = Vec::new();
    for (name, timing, pages_per_block) in generations {
        let mut exp = Experiment::standard();
        exp.system.ftl = FtlConfig::builder()
            .user_pages(24_576)
            .op_permille(70)
            .pages_per_block(pages_per_block)
            .page_size_bytes(4_096)
            .gc_reserve_blocks(2)
            .timing(timing)
            .build();
        let no_bgc = exp.run(PolicyKind::NoBgc, BenchmarkKind::TpcC);
        let aggressive = exp.run(PolicyKind::A_BGC, BenchmarkKind::TpcC);
        rows.push((
            name.to_owned(),
            vec![
                no_bgc.iops,
                aggressive.iops,
                (aggressive.iops / no_bgc.iops - 1.0) * 100.0,
                no_bgc.latency_p999_us as f64 / 1000.0,
            ],
        ));
    }
    print!(
        "{}",
        format_table(
            "Ablation: NAND generation vs the value of hiding GC (TPC-C)",
            &[
                "IOPS(No-BGC)".into(),
                "IOPS(A-BGC)".into(),
                "BGC gain %".into(),
                "p999(No-BGC) ms".into(),
            ],
            &rows,
            1,
        )
    );
}

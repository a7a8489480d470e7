//! Record a workload to a JSON-lines trace, replay it, and verify the
//! replayed run is bit-identical — the mechanism for substituting real
//! block traces for the synthetic generators.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use jitgc_bench::Experiment;
use jitgc_repro::core::policy::{JitGc, PolicyKind};
use jitgc_repro::core::system::SsdSystem;
use jitgc_repro::sim::json::JsonValue;
use jitgc_repro::sim::SimDuration;
use jitgc_repro::workload::{record_trace, BenchmarkKind, IoRequest, TraceWorkload};
use std::io::{BufRead, Write};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let exp = Experiment {
        duration: SimDuration::from_secs(60),
        seed: 7,
        ..Experiment::standard()
    };
    let workload_config = exp.workload_config(1)?;

    // 1. Record a Postmark stream to JSON lines.
    let mut original = BenchmarkKind::Postmark.build(workload_config);
    let trace = record_trace(original.as_mut(), u64::MAX);
    let path = std::env::temp_dir().join("jitgc_postmark.trace.jsonl");
    {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for record in &trace {
            file.write_all(record.to_json().to_compact().as_bytes())?;
            file.write_all(b"\n")?;
        }
    }
    println!("recorded {} requests to {}", trace.len(), path.display());

    // 2. Load it back.
    let file = std::io::BufReader::new(std::fs::File::open(&path)?);
    let loaded: Vec<IoRequest> = file
        .lines()
        .map(|line| Ok(IoRequest::from_json(&JsonValue::parse(&line?)?)?))
        .collect::<Result<_, Box<dyn std::error::Error>>>()?;
    println!("loaded   {} requests", loaded.len());

    // 3. Run the generator-driven and the trace-driven simulations; they
    //    must agree exactly.
    let report_live = exp.run(PolicyKind::Jit, BenchmarkKind::Postmark);
    let report_replay = SsdSystem::new(
        exp.system.clone(),
        Box::new(JitGc::from_system_config(&exp.system)),
        Box::new(
            TraceWorkload::new("Postmark (replayed)", loaded)
                .with_working_set(workload_config.working_set_pages()),
        ),
    )
    .run();

    println!(
        "live run  : {} ops, WAF {:.4}, {} erases",
        report_live.ops,
        report_live.waf.expect("host writes happened"),
        report_live.nand_erases
    );
    println!(
        "replay run: {} ops, WAF {:.4}, {} erases",
        report_replay.ops,
        report_replay.waf.expect("host writes happened"),
        report_replay.nand_erases
    );
    assert_eq!(report_live.ops, report_replay.ops);
    assert_eq!(
        report_live.waf.expect("host writes happened"),
        report_replay.waf.expect("host writes happened")
    );
    assert_eq!(report_live.nand_erases, report_replay.nand_erases);
    println!("replay is bit-identical ✓");
    std::fs::remove_file(&path)?;
    Ok(())
}

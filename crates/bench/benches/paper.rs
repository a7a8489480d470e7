//! Every table of the paper's evaluation — Fig. 2, Table 1, Fig. 7,
//! Tables 2 and 3, Fig. 9's lifetime — with the ablations and extensions
//! beside them (among them the Fig. 7 policies on a 4-member RAID-0 array
//! by GC mode, and staggered collection on that array under load),
//! written into `EXPERIMENTS.md`.
//!
//! `cargo bench -p jitgc-bench --bench paper` runs every table's cells
//! on all cores and replaces the text between each table's
//! `<!-- paper:<id> -->` marker and the next `<!-- /paper -->` with the
//! table. Runs are deterministic, so a change that moves a number shows
//! up as a diff of `EXPERIMENTS.md`; CI runs this target and fails on
//! one.
//!
//! A table is a spec: an id, a title, its columns and their precision,
//! one row of cells per row label, and the function that turns a row's
//! reports into its values. Each cell is a [`jitgc_bench::Cell`] — a
//! variant of [`Experiment::standard`], a policy and a [`Load`]: one
//! device running a benchmark or the synthetic workload, or an array of
//! devices running a benchmark, sized by the library like every `ssdsim`
//! cell.

use jitgc_array::{ArrayReport, GcMode, Redundancy};
use jitgc_bench::{
    default_threads, format_table, run_grid, Cell, Experiment, Load, PolicyKind, Report,
};
use jitgc_core::system::{SimReport, VictimKind};
use jitgc_nand::NandTiming;
use jitgc_sim::SimDuration;
use jitgc_workload::{measure_write_mix, BenchmarkKind};
use std::collections::HashMap;
use std::time::Instant;

/// A cell: `load` under `policy` on `exp`.
fn cell(exp: &Experiment, policy: PolicyKind, load: Load) -> Cell {
    Cell {
        exp: exp.clone(),
        policy,
        load,
    }
}

/// `benchmark` striped over a RAID-0 array of 4 devices in 64 KiB
/// chunks, collecting in `gc_mode`.
fn array(benchmark: BenchmarkKind, gc_mode: GcMode) -> Load {
    Load::Array {
        benchmark,
        members: 4,
        chunk_pages: 16,
        redundancy: Redundancy::None,
        gc_mode,
    }
}

/// A row's values, from the row's index and its cells' reports in order.
type Values = Box<dyn Fn(usize, &[&Report]) -> Vec<f64>>;

/// A row's values from its cells' single-device reports.
fn device(values: impl Fn(usize, &[&SimReport]) -> Vec<f64> + 'static) -> Values {
    Box::new(move |row, reports| {
        let reports: Vec<&SimReport> = reports.iter().map(|r| r.device()).collect();
        values(row, &reports)
    })
}

/// One generated table.
struct Table {
    id: &'static str,
    title: &'static str,
    columns: Vec<String>,
    /// Decimal places of every value.
    precision: usize,
    /// Each row's label and the cells its values are read from.
    rows: Vec<(String, Vec<Cell>)>,
    values: Values,
}

/// The standard experiment with one change.
fn varied(change: impl FnOnce(&mut Experiment)) -> Experiment {
    let mut exp = Experiment::standard();
    change(&mut exp);
    exp
}

/// One row per benchmark, with one cell per `(experiment, policy)`
/// variant.
fn by_benchmark(
    benchmarks: &[BenchmarkKind],
    variants: &[(Experiment, PolicyKind)],
) -> Vec<(String, Vec<Cell>)> {
    benchmarks
        .iter()
        .map(|&benchmark| {
            let cells = variants
                .iter()
                .map(|(exp, policy)| cell(exp, *policy, Load::Bench(benchmark)))
                .collect();
            (benchmark.name().to_owned(), cells)
        })
        .collect()
}

/// Variants that differ only in the policy.
fn policies(policies: &[PolicyKind]) -> Vec<(Experiment, PolicyKind)> {
    policies
        .iter()
        .map(|&p| (Experiment::standard(), p))
        .collect()
}

/// One value per cell.
fn each(metric: fn(&SimReport) -> f64) -> Values {
    device(move |_, reports| reports.iter().map(|r| metric(r)).collect())
}

/// One value per array cell.
fn each_array(metric: fn(&ArrayReport) -> f64) -> Values {
    Box::new(move |_, reports| reports.iter().map(|r| metric(r.array())).collect())
}

fn waf(r: &SimReport) -> f64 {
    r.waf.expect("host writes happened")
}

fn iops(r: &SimReport) -> f64 {
    r.iops
}

fn stalls(r: &SimReport) -> f64 {
    (r.fgc_request_stalls + r.fgc_flush_stalls) as f64
}

fn columns(names: &[&str]) -> Vec<String> {
    names.iter().map(|&name| name.to_owned()).collect()
}

fn labels<T>(values: &[T], label: impl Fn(&T) -> String) -> Vec<String> {
    values.iter().map(label).collect()
}

fn tables() -> Vec<Table> {
    let all = BenchmarkKind::all();
    let mut tables = Vec::new();

    // Fig. 2: C_resv from 0.5 to 1.5 × C_OP; 1.5 × C_OP is A-BGC.
    let reserves = [500u64, 750, 1_000, 1_250, 1_500];
    let reserve_cells = by_benchmark(&all, &policies(&reserves.map(PolicyKind::ReservedPermille)));
    let reserve_columns = labels(&reserves, |p| format!("{:.2}OP", *p as f64 / 1000.0));
    tables.push(Table {
        id: "fig2a",
        title: "Fig. 2(a): normalized IOPS vs reserved capacity (baseline: 1.5OP = A-BGC)",
        columns: reserve_columns.clone(),
        precision: 3,
        rows: reserve_cells.clone(),
        values: device(|_, r| r.iter().map(|x| x.normalized_iops(r[4])).collect()),
    });
    tables.push(Table {
        id: "fig2b",
        title: "Fig. 2(b): normalized WAF vs reserved capacity (baseline: 1.5OP = A-BGC)",
        columns: reserve_columns,
        precision: 3,
        rows: reserve_cells,
        values: device(|_, r| r.iter().map(|x| x.normalized_waf(r[4])).collect()),
    });

    // Table 1 drains each generator; nothing is simulated.
    tables.push(Table {
        id: "table1",
        title: "Table 1: breakdown of write types (percent of written pages)",
        columns: columns(&[
            "buffered(meas)",
            "direct(meas)",
            "buffered(paper)",
            "direct(paper)",
        ]),
        precision: 1,
        rows: all
            .iter()
            .map(|b| (b.name().to_owned(), Vec::new()))
            .collect(),
        values: device(move |row, _| {
            let kind = all[row];
            let config = Experiment::standard()
                .workload_config(1)
                .expect("it is sized");
            let mut workload = kind.build(config);
            let measured = measure_write_mix(workload.as_mut(), u64::MAX)
                .buffered_fraction()
                .expect("every benchmark writes");
            let paper = kind.write_mix().buffered_fraction;
            [measured, 1.0 - measured, paper, 1.0 - paper]
                .map(|f| f * 100.0)
                .to_vec()
        }),
    });

    // Fig. 7: the paper's four policies, normalized to A-BGC.
    let fig7 = [
        PolicyKind::L_BGC,
        PolicyKind::A_BGC,
        PolicyKind::Adp,
        PolicyKind::Jit,
    ];
    tables.push(Table {
        id: "fig7a",
        title: "Fig. 7(a): normalized IOPS by policy (baseline: A-BGC)",
        columns: labels(&fig7, |p| p.name()),
        precision: 3,
        rows: by_benchmark(&all, &policies(&fig7)),
        values: device(|_, r| r.iter().map(|x| x.normalized_iops(r[1])).collect()),
    });
    tables.push(Table {
        id: "fig7b",
        title: "Fig. 7(b): normalized WAF by policy (baseline: A-BGC)",
        columns: labels(&fig7, |p| p.name()),
        precision: 3,
        rows: by_benchmark(&all, &policies(&fig7)),
        values: device(|_, r| r.iter().map(|x| x.normalized_waf(r[1])).collect()),
    });

    // The paper's own values of Tables 2 and 3, in `BenchmarkKind::all()`
    // order.
    const TABLE2_PAPER: [[f64; 2]; 6] = [
        [98.9, 87.7],
        [93.2, 72.8],
        [97.3, 82.0],
        [89.8, 73.4],
        [86.1, 74.1],
        [72.5, 71.2],
    ];
    const TABLE3_PAPER: [f64; 6] = [12.2, 20.6, 17.5, 8.7, 4.9, 1.1];
    tables.push(Table {
        id: "table2",
        title: "Table 2: prediction accuracy of future write predictors (%)",
        columns: columns(&["JIT-GC", "ADP-GC", "JIT-GC(paper)", "ADP-GC(paper)"]),
        precision: 1,
        rows: by_benchmark(&all, &policies(&[PolicyKind::Jit, PolicyKind::Adp])),
        values: device(|row, r| {
            let accuracy = |r: &SimReport| r.prediction_accuracy_percent.expect("it predicts");
            let [jit, adp] = TABLE2_PAPER[row];
            vec![accuracy(r[0]), accuracy(r[1]), jit, adp]
        }),
    });
    tables.push(Table {
        id: "table3",
        title: "Table 3: filtered GC victim blocks under JIT-GC (%)",
        columns: columns(&["filtered", "paper"]),
        precision: 1,
        rows: by_benchmark(&all, &policies(&[PolicyKind::Jit])),
        values: device(|row, r| {
            let filtered = r[0].sip_filtered_fraction.map_or(0.0, |f| f * 100.0);
            vec![filtered, TABLE3_PAPER[row]]
        }),
    });

    // The direct predictor's CDH percentile on the direct-heavy pair.
    let percentiles = [0.6, 0.7, 0.8, 0.9, 0.95];
    let percentile_cells = by_benchmark(
        &[BenchmarkKind::Tiobench, BenchmarkKind::TpcC],
        &percentiles.map(|p| (varied(|e| e.system.cdh_percentile = p), PolicyKind::Jit)),
    );
    let percentile_columns = labels(&percentiles, |p| format!("{p:.2}"));
    tables.push(Table {
        id: "ablation_cdh_fgc",
        title: "Ablation: CDH percentile vs FGC stalls (JIT-GC, direct-heavy workloads)",
        columns: percentile_columns.clone(),
        precision: 0,
        rows: percentile_cells.clone(),
        values: each(stalls),
    });
    tables.push(Table {
        id: "ablation_cdh_waf",
        title: "Ablation: CDH percentile vs WAF (JIT-GC, direct-heavy workloads)",
        columns: percentile_columns,
        precision: 3,
        rows: percentile_cells,
        values: each(waf),
    });

    let selectors = [
        ("greedy", VictimKind::Greedy),
        ("cost-benefit", VictimKind::CostBenefit),
        ("fifo", VictimKind::Fifo),
        ("random", VictimKind::Random(7)),
    ];
    let selector_cells = by_benchmark(
        &[
            BenchmarkKind::Ycsb,
            BenchmarkKind::Postmark,
            BenchmarkKind::TpcC,
        ],
        &selectors.map(|(_, kind)| (varied(|e| e.system.victim = kind), PolicyKind::Jit)),
    );
    let selector_columns = labels(&selectors, |(name, _)| (*name).to_owned());
    tables.push(Table {
        id: "ablation_victim_waf",
        title: "Ablation: victim selector vs WAF (JIT-GC)",
        columns: selector_columns.clone(),
        precision: 3,
        rows: selector_cells.clone(),
        values: each(waf),
    });
    tables.push(Table {
        id: "ablation_victim_iops",
        title: "Ablation: victim selector vs IOPS (JIT-GC)",
        columns: selector_columns,
        precision: 0,
        rows: selector_cells,
        values: each(iops),
    });

    tables.push(Table {
        id: "ablation_flush",
        title: "Ablation: relaxed vs strict tau_flush in the buffered predictor (JIT-GC)",
        columns: columns(&["FGC(relaxed)", "FGC(strict)", "WAF(relaxed)", "WAF(strict)"]),
        precision: 2,
        rows: by_benchmark(
            &[
                BenchmarkKind::Ycsb,
                BenchmarkKind::Postmark,
                BenchmarkKind::Filebench,
            ],
            &[
                (Experiment::standard(), PolicyKind::Jit),
                (
                    varied(|e| e.system.strict_tau_flush = true),
                    PolicyKind::Jit,
                ),
            ],
        ),
        values: device(|_, r| vec![stalls(r[0]), stalls(r[1]), waf(r[0]), waf(r[1])]),
    });

    // The standard device on three flash generations' program time and
    // block size: TPC-C without BGC against A-BGC.
    let generations = [
        ("130nm", NandTiming::legacy_130nm(), 64u32),
        ("20nm", NandTiming::mlc_20nm(), 128),
        ("25nm", NandTiming::dense_25nm(), 384),
    ];
    tables.push(Table {
        id: "ablation_nand",
        title: "Ablation: NAND generation vs the value of hiding GC (TPC-C)",
        columns: columns(&[
            "IOPS(No-BGC)",
            "IOPS(A-BGC)",
            "BGC gain %",
            "p999(No-BGC) ms",
        ]),
        precision: 1,
        rows: generations
            .iter()
            .map(|&(name, timing, pages_per_block)| {
                let exp = varied(|e| {
                    e.system.ftl = e
                        .system
                        .ftl
                        .to_builder()
                        .pages_per_block(pages_per_block)
                        .timing(timing)
                        .build();
                });
                let cells = [PolicyKind::NoBgc, PolicyKind::A_BGC]
                    .map(|policy| cell(&exp, policy, Load::Bench(BenchmarkKind::TpcC)));
                (name.to_owned(), cells.to_vec())
            })
            .collect(),
        values: device(|_, r| {
            let (none, aggressive) = (r[0], r[1]);
            vec![
                none.iops,
                aggressive.iops,
                (aggressive.iops / none.iops - 1.0) * 100.0,
                none.latency_p999_us as f64 / 1000.0,
            ]
        }),
    });

    let streams = varied(|e| {
        e.system.ftl = e
            .system
            .ftl
            .to_builder()
            .hot_cold_streams(SimDuration::from_secs(5))
            .build();
    });
    tables.push(Table {
        id: "ablation_hot_cold",
        title: "Ablation: hot/cold stream separation (JIT-GC)",
        columns: columns(&["WAF(single)", "WAF(streams)", "saving %"]),
        precision: 2,
        rows: by_benchmark(
            &[
                BenchmarkKind::Ycsb,
                BenchmarkKind::Postmark,
                BenchmarkKind::Bonnie,
                BenchmarkKind::TpcC,
            ],
            &[
                (Experiment::standard(), PolicyKind::Jit),
                (streams, PolicyKind::Jit),
            ],
        ),
        values: device(|_, r| {
            let (single, streamed) = (waf(r[0]), waf(r[1]));
            vec![single, streamed, (1.0 - streamed / single) * 100.0]
        }),
    });

    // Each closed-loop thread keeps the standard per-thread rate, so the
    // offered load grows with the depth.
    let depths = [1u32, 4, 16];
    tables.push(Table {
        id: "ablation_queue_depth",
        title: "Ablation: queue depth vs A-BGC-over-L-BGC IOPS advantage (%)",
        columns: labels(&depths, |d| format!("QD{d}")),
        precision: 1,
        rows: by_benchmark(
            &[BenchmarkKind::TpcC, BenchmarkKind::Tiobench],
            &depths
                .iter()
                .flat_map(|&depth| {
                    let exp = varied(|e| {
                        e.system.queue_depth = depth;
                        e.mean_iops *= f64::from(depth);
                    });
                    [(exp.clone(), PolicyKind::L_BGC), (exp, PolicyKind::A_BGC)]
                })
                .collect::<Vec<_>>(),
        ),
        values: device(|_, r| {
            r.chunks(2)
                .map(|pair| (pair[1].iops / pair[0].iops - 1.0) * 100.0)
                .collect()
        }),
    });

    // The Table 1 axis swept continuously with the synthetic workload.
    let fractions = [0.0, 0.25, 0.5, 0.75, 0.95];
    let fraction_columns = labels(&fractions, |f| format!("{f:.2}"));
    let synthetic = |policy: PolicyKind| -> Vec<Cell> {
        fractions
            .iter()
            .map(|&f| cell(&Experiment::standard(), policy, Load::Synthetic(f)))
            .collect()
    };
    tables.push(Table {
        id: "sweep_buffered_waf",
        title: "Sweep: buffered fraction vs WAF (Synthetic, Zipf 0.99)",
        columns: fraction_columns.clone(),
        precision: 3,
        rows: [PolicyKind::Jit, PolicyKind::Adp]
            .iter()
            .map(|&p| (p.name(), synthetic(p)))
            .collect(),
        values: each(waf),
    });
    tables.push(Table {
        id: "sweep_buffered_accuracy",
        title: "Sweep: buffered fraction vs JIT−ADP accuracy gap (pp)",
        columns: fraction_columns,
        precision: 1,
        rows: vec![(
            "gap".to_owned(),
            [synthetic(PolicyKind::Jit), synthetic(PolicyKind::Adp)].concat(),
        )],
        values: device(|_, r| {
            let accuracy = |r: &SimReport| r.prediction_accuracy_percent.unwrap_or(0.0);
            let (jit, adp) = r.split_at(r.len() / 2);
            jit.iter()
                .zip(adp)
                .map(|(j, a)| accuracy(j) - accuracy(a))
                .collect()
        }),
    });

    // The whole policy matrix, absolute numbers.
    let matrix = [
        PolicyKind::NoBgc,
        PolicyKind::L_BGC,
        PolicyKind::A_BGC,
        PolicyKind::Idle,
        PolicyKind::Adp,
        PolicyKind::JitNoSip,
        PolicyKind::Jit,
    ];
    let matrix_cells = by_benchmark(&all, &policies(&matrix));
    for (id, title, precision, metric) in [
        (
            "extended_iops",
            "Extended comparison: IOPS (absolute)",
            0,
            iops as fn(&SimReport) -> f64,
        ),
        ("extended_waf", "Extended comparison: WAF", 2, waf),
        (
            "extended_stalls",
            "Extended comparison: foreground-GC stalls",
            0,
            stalls,
        ),
    ] {
        tables.push(Table {
            id,
            title,
            columns: labels(&matrix, |p| p.name()),
            precision,
            rows: matrix_cells.clone(),
            values: each(metric),
        });
    }

    // The Fig. 7 policies on a 4-member array, with and without
    // staggered collection.
    let modes = [GcMode::Unsynchronized, GcMode::Staggered];
    let short = varied(|e| e.duration = SimDuration::from_secs(120));
    let array_cells: Vec<(String, Vec<Cell>)> = all
        .iter()
        .map(|&b| {
            let cells = fig7
                .iter()
                .flat_map(|&p| modes.map(|m| cell(&short, p, array(b, m))));
            (b.name().to_owned(), cells.collect())
        })
        .collect();
    let array_columns: Vec<String> = fig7
        .iter()
        .flat_map(|p| modes.map(|m| format!("{}/{}", p.name(), m.name())))
        .collect();
    for (id, title, precision, metric) in [
        (
            "array_iops",
            "Array (4-way RAID-0): IOPS by policy x GC mode",
            0,
            (|r| r.iops) as fn(&ArrayReport) -> f64,
        ),
        ("array_waf", "Array (4-way RAID-0): WAF", 3, |r| {
            r.waf.expect("host writes happened")
        }),
    ] {
        tables.push(Table {
            id,
            title,
            columns: array_columns.clone(),
            precision,
            rows: array_cells.clone(),
            values: each_array(metric),
        });
    }

    // The same array under load: JIT-GC at 500 IOPS per member, 8
    // closed-loop threads.
    let loaded = varied(|e| {
        e.duration = SimDuration::from_secs(120);
        e.mean_iops = 500.0;
        e.system.queue_depth = 8;
    });
    tables.push(Table {
        id: "array_stagger",
        title: "Array (4-way RAID-0, QD 8, JIT-GC): staggered vs unsynchronized GC",
        columns: columns(&["IOPS", "p99 (us)", "p999 (us)", "WAF", "FGC(request)"]),
        precision: 3,
        rows: [BenchmarkKind::Tiobench, BenchmarkKind::Postmark]
            .iter()
            .flat_map(|&b| {
                let row = |m: GcMode| format!("{} {}", b.name(), m.name());
                modes.map(|m| (row(m), vec![cell(&loaded, PolicyKind::Jit, array(b, m))]))
            })
            .collect(),
        values: Box::new(|_, r| {
            let a = r[0].array();
            vec![
                a.iops,
                a.latency_p99_us as f64,
                a.latency_p999_us as f64,
                a.waf.expect("host writes happened"),
                a.fgc_request_stalls as f64,
            ]
        }),
    });

    // Fig. 9: each policy on flash that wears out at the 60th erase of
    // a block, run until the device goes read-only.
    let endurance = varied(|e| {
        e.system.ftl = e.system.ftl.to_builder().endurance_limit(60).build();
        e.duration = SimDuration::from_secs(2_400);
        e.mean_iops = 2_000.0;
        e.seed = 7;
    });
    tables.push(Table {
        id: "lifetime",
        title: "Fig. 9: lifetime to read-only (endurance 60, 2000 IOPS, seed 7)",
        columns: columns(&["lifetime MiB", "read-only s", "FGC(request)", "WAF"]),
        precision: 2,
        rows: [
            BenchmarkKind::Ycsb,
            BenchmarkKind::Filebench,
            BenchmarkKind::Tiobench,
            BenchmarkKind::Postmark,
        ]
        .iter()
        .flat_map(|&benchmark| {
            [PolicyKind::A_BGC, PolicyKind::L_BGC, PolicyKind::Jit].map(|policy| {
                let row = format!("{} {}", benchmark.name(), policy.name());
                (row, vec![cell(&endurance, policy, Load::Bench(benchmark))])
            })
        })
        .collect(),
        values: device(|_, r| {
            let worn = r[0].degraded.as_ref().expect("the device wears out");
            let bytes = worn.lifetime_host_bytes.expect("it went read-only");
            vec![
                bytes as f64 / f64::from(1u32 << 20),
                worn.read_only_at_secs.expect("it went read-only"),
                r[0].fgc_request_stalls as f64,
                waf(r[0]),
            ]
        }),
    });

    tables
}

/// Replaces the body of `id`'s marker pair in `doc` with `table`.
fn splice(doc: &str, id: &str, table: &str) -> String {
    let open = format!("<!-- paper:{id} -->\n");
    let start = doc
        .find(&open)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no `{}` marker", open.trim_end()))
        + open.len();
    let end = start
        + doc[start..]
            .find("<!-- /paper -->")
            .unwrap_or_else(|| panic!("the `paper:{id}` block is never closed"));
    format!("{}```text\n{table}```\n{}", &doc[..start], &doc[end..])
}

fn main() {
    let started = Instant::now();
    let tables = tables();

    // `Debug` prints every field of a cell, so equal keys are equal
    // cells: a cell that several tables read runs once.
    let key = |cell: &Cell| format!("{cell:?}");
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut unique: Vec<&Cell> = Vec::new();
    for cell in tables.iter().flat_map(|t| &t.rows).flat_map(|(_, c)| c) {
        index.entry(key(cell)).or_insert_with(|| {
            unique.push(cell);
            unique.len() - 1
        });
    }
    let reports = run_grid(&unique, default_threads(), |cell| cell.run());

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let mut doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md is readable");
    let blocks = doc.matches("\n<!-- paper:").count();
    assert_eq!(
        blocks,
        tables.len(),
        "EXPERIMENTS.md has {blocks} paper blocks for {} tables",
        tables.len()
    );
    for table in &tables {
        let rows: Vec<(String, Vec<f64>)> = table
            .rows
            .iter()
            .enumerate()
            .map(|(i, (name, cells))| {
                let row: Vec<&Report> = cells.iter().map(|c| &reports[index[&key(c)]]).collect();
                (name.clone(), (table.values)(i, &row))
            })
            .collect();
        let text = format_table(table.title, &table.columns, &rows, table.precision);
        print!("{text}");
        doc = splice(&doc, table.id, text.trim_start());
    }
    std::fs::write(path, doc).expect("EXPERIMENTS.md is writable");
    eprintln!(
        "paper: {} tables from {} cells in {:.1} s, written to EXPERIMENTS.md",
        tables.len(),
        unique.len(),
        started.elapsed().as_secs_f64()
    );
}

//! Regenerates every table/figure of the paper's evaluation (§5).
//!
//! ```text
//! experiments [--quick] [--seed S] [--out DIR] <target>...
//! targets: fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
//!          model baselines ablation all
//! ```
//!
//! Full-scale runs reproduce the paper's parameters (figures 5–8 at
//! 100,000 nodes); `--quick` shrinks populations for smoke runs. Each
//! target prints a markdown table and writes `results/<target>.csv`.

use peerwindow_bench::extras::{
    baselines_table, detection_ablation, flash_crowd_experiment, gossip_ablation,
    lifetime_shape_ablation, model_vs_sim,
};
use peerwindow_bench::figures::*;
use peerwindow_metrics::plot::{bar_chart, scatter, Scale as Axis};
use peerwindow_metrics::Table;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Args {
    scale: Scale,
    seed: u64,
    out: PathBuf,
    targets: BTreeSet<String>,
}

fn parse_args() -> Args {
    let mut scale = Scale::Full;
    let mut seed = 42u64;
    let mut out = PathBuf::from("results");
    let mut targets = BTreeSet::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => scale = Scale::Quick,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed takes an integer")
            }
            "--out" => out = PathBuf::from(it.next().expect("--out takes a path")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments [--quick] [--seed S] [--out DIR] \
                     <fig5..fig12|model|baselines|ablation|all>..."
                );
                std::process::exit(0);
            }
            t => {
                targets.insert(t.to_string());
            }
        }
    }
    if targets.is_empty() || targets.contains("all") {
        targets = [
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "model",
            "baselines",
            "ablation",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    Args {
        scale,
        seed,
        out,
        targets,
    }
}

fn emit(out: &Path, name: &str, title: &str, table: &Table) {
    println!("\n## {name} — {title}\n");
    print!("{}", table.to_markdown());
    let path = out.join(format!("{name}.csv"));
    table.write_csv(&path).expect("write csv");
    println!("\n→ {}", path.display());
}

fn main() {
    let args = parse_args();
    let t0 = Instant::now();
    let want = |s: &str| args.targets.contains(s);
    println!(
        "PeerWindow experiment harness — scale: {:?}, seed: {}",
        args.scale, args.seed
    );

    // Figures 5–8 share the common run.
    let common = if ["fig5", "fig6", "fig7", "fig8", "model"]
        .iter()
        .any(|f| want(f))
    {
        let t = Instant::now();
        let n = args.scale.common_n();
        println!("\n[common run: {n} nodes …]");
        let rep = common_run(args.scale, args.seed);
        println!(
            "[common run done in {:.1?}: {} events, {} deliveries, depth {:.1}, delay {:.1}s, {} shifts]",
            t.elapsed(),
            rep.events,
            rep.deliveries,
            rep.mean_tree_depth,
            rep.mean_multicast_delay_s,
            rep.level_shifts,
        );
        Some(rep)
    } else {
        None
    };
    if let Some(rep) = &common {
        if want("fig5") {
            emit(&args.out, "fig5", "node distribution by level", &fig5(rep));
            let rows: Vec<(String, f64)> = rep
                .rows
                .iter()
                .map(|r| (format!("L{}", r.level), r.node_fraction))
                .collect();
            println!("\n{}", bar_chart(&rows, 46));
        }
        if want("fig6") {
            emit(&args.out, "fig6", "peer-list sizes by level", &fig6(rep));
        }
        if want("fig7") {
            emit(
                &args.out,
                "fig7",
                "peer-list error rate by level",
                &fig7(rep),
            );
            let rows: Vec<(String, f64)> = rep
                .rows
                .iter()
                .map(|r| (format!("L{}", r.level), r.error_rate))
                .collect();
            println!("\n{}", bar_chart(&rows, 46));
        }
        if want("fig8") {
            emit(&args.out, "fig8", "bandwidth by level", &fig8(rep));
            let rows: Vec<(String, f64)> = rep
                .rows
                .iter()
                .flat_map(|r| {
                    [
                        (format!("L{} in ", r.level), r.in_bps),
                        (format!("L{} out", r.level), r.out_bps),
                    ]
                })
                .collect();
            println!("\n{}", bar_chart(&rows, 46));
        }
        if want("model") {
            let lifetime = 135.0 * 60.0;
            emit(
                &args.out,
                "model",
                "§2 analytic model vs simulation",
                &model_vs_sim(rep, lifetime),
            );
        }
    }

    if want("fig9") || want("fig10") {
        let t = Instant::now();
        println!("\n[scalability sweep {:?} …]", args.scale.sweep_ns());
        let sweep = scale_sweep(args.scale, args.seed, common.as_ref());
        println!("[sweep done in {:.1?}]", t.elapsed());
        if want("fig9") {
            emit(
                &args.out,
                "fig9",
                "node distribution vs system scale",
                &fig9(&sweep),
            );
        }
        if want("fig10") {
            emit(
                &args.out,
                "fig10",
                "average error rate vs system scale",
                &fig10(&sweep),
            );
            let pts: Vec<(f64, f64)> = sweep
                .iter()
                .map(|(n, r)| (*n as f64, r.avg_error_rate))
                .collect();
            println!("\n{}", scatter(&pts, 50, 10, Axis::Log, Axis::Linear));
        }
    }

    if want("fig11") || want("fig12") {
        let t = Instant::now();
        println!(
            "\n[lifetime sweep {:?} at n = {} …]",
            lifetime_rates(args.scale),
            args.scale.lifetime_sweep_n()
        );
        let sweep = lifetime_sweep(args.scale, args.seed);
        println!("[sweep done in {:.1?}]", t.elapsed());
        if want("fig11") {
            emit(
                &args.out,
                "fig11",
                "node distribution vs Lifetime_Rate",
                &fig11(&sweep),
            );
        }
        if want("fig12") {
            emit(
                &args.out,
                "fig12",
                "average error rate vs Lifetime_Rate (log y)",
                &fig12(&sweep),
            );
            let pts: Vec<(f64, f64)> = sweep
                .iter()
                .map(|(rate, r)| (*rate, r.avg_error_rate))
                .collect();
            println!("\n{}", scatter(&pts, 50, 10, Axis::Log, Axis::Log));
        }
    }

    if want("baselines") {
        emit(
            &args.out,
            "baselines",
            "pointers per budget: PeerWindow vs probing vs one-hop",
            &baselines_table(args.scale.common_n() as f64, 8_100.0),
        );
    }

    if want("ablation") {
        emit(
            &args.out,
            "ablation_gossip",
            "tree multicast vs gossip redundancy",
            &gossip_ablation(args.seed),
        );
        emit(
            &args.out,
            "ablation_detection",
            "failure-detection parameters vs error rate",
            &detection_ablation(args.scale, args.seed),
        );
        emit(
            &args.out,
            "ablation_lifetime_shape",
            "lifetime distribution shape vs error rate",
            &lifetime_shape_ablation(args.scale, args.seed),
        );
        emit(
            &args.out,
            "flash_crowd",
            "extension: 30% flash crowd absorption",
            &flash_crowd_experiment(args.scale, args.seed),
        );
    }

    println!("\nall requested targets finished in {:.1?}", t0.elapsed());
}

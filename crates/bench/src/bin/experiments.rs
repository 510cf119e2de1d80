//! Experiment runner: regenerates every theorem-validation table
//! (DESIGN.md §4, recorded in EXPERIMENTS.md).
//!
//! Usage:
//!   experiments                 # run everything
//!   experiments ID [ID…]        # run selected experiments
//!   experiments --list          # list experiment ids
//!
//! Output: markdown tables on stdout; each table is also written to
//! `results/<id>.json`.

use dpsc_bench::exps;
use dpsc_bench::Table;

type Runner = fn() -> Vec<Table>;

fn registry() -> Vec<(&'static str, &'static str, Runner)> {
    vec![
        ("figures", "Figures 1–3 worked example", || exps::mining::figures()),
        ("t1_error_vs_ell", "Thm 1: error vs ℓ (vs ℓ² baseline)", || {
            vec![exps::t1::t1_error_vs_ell()]
        }),
        ("t1_error_vs_eps", "Thm 1: error vs ε", || vec![exps::t1::t1_error_vs_eps()]),
        ("t1_size", "Thm 1: structure size + absent strings", || vec![exps::t1::t1_size()]),
        ("t2_sqrt_ell", "Thm 2: √ℓ document counting", || vec![exps::t2::t2_sqrt_ell()]),
        ("t2_delta", "Thm 2: √Δ interpolation", || vec![exps::t2::t2_delta()]),
        ("t3_qgram", "Thm 3: ε-DP q-grams", || vec![exps::qgrams::t3_qgram()]),
        ("t4_scaling", "Thm 4: near-linear construction", || vec![exps::qgrams::t4_scaling()]),
        ("t5_packing", "Thm 5: packing lower bound", || vec![exps::lower::t5_packing()]),
        ("t6_substring_lb", "Thm 6: Ω(ℓ) substring lower bound", || {
            vec![exps::lower::t6_substring_lb()]
        }),
        ("t7_marginals", "Thm 7: marginals reduction", || vec![exps::lower::t7_marginals()]),
        ("t8_tree", "Thm 8: counting on trees", || vec![exps::trees::t8_tree()]),
        ("t9_colored", "Thm 9: colored tree counting", || vec![exps::trees::t9_colored()]),
        ("mining_utility", "Mining precision/recall", || exps::mining::mining_utility()),
        ("serving_throughput", "Serving: trie walk vs frozen synopsis", || {
            vec![exps::serving::serving_throughput()]
        }),
        ("audit", "Statistical DP/utility conformance matrix", || {
            vec![exps::audit::audit_conformance()]
        }),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reg = registry();
    if args.iter().any(|a| a == "--list") {
        for (id, desc, _) in &reg {
            println!("{id:18} {desc}");
        }
        return;
    }
    let selected: Vec<&(&str, &str, Runner)> = if args.is_empty() {
        reg.iter().collect()
    } else {
        let mut sel = Vec::new();
        for a in &args {
            match reg.iter().find(|(id, _, _)| id == a) {
                Some(e) => sel.push(e),
                None => {
                    eprintln!("unknown experiment `{a}` (try --list)");
                    std::process::exit(2);
                }
            }
        }
        sel
    };
    std::fs::create_dir_all("results").ok();
    for (id, desc, run) in selected {
        eprintln!("[experiments] running {id} — {desc}");
        let t0 = std::time::Instant::now();
        let tables = run();
        eprintln!("[experiments] {id} finished in {:.1?}", t0.elapsed());
        for table in tables {
            print!("{}", table.to_markdown());
            let path = format!("results/{}.json", table.id);
            if let Err(e) = std::fs::write(&path, table.to_json()) {
                eprintln!("[experiments] failed writing {path}: {e}");
            }
        }
    }
}

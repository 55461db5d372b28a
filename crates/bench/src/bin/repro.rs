//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! cargo run -p rslpa-bench --release --bin repro -- all
//! cargo run -p rslpa-bench --release --bin repro -- fig9
//! cargo run -p rslpa-bench --release --bin repro -- fig7b --paper-scale
//! ```

use rslpa_bench::exp_churn::ChurnWorkload;
use rslpa_bench::exp_scale::ScaleWorkload;
use rslpa_bench::exp_serve::ServeWorkload;
use rslpa_bench::{
    exp_ablations, exp_churn, exp_dynamic, exp_scale, exp_serve, exp_synthetic, exp_trace,
    exp_voting, exp_web, Scale,
};

const EXPERIMENTS: &[(&str, &str)] = &[
    ("fig2", "plurality-voting win distributions (exact)"),
    ("fig3", "voting vs uniform-picking over a fixed multiset"),
    ("thm1", "max Pu <= max Pv on random multisets"),
    ("thm23", "(src,pos) sampling == pooled-multiset sampling"),
    ("table1", "LFR parameters and achieved statistics"),
    ("fig7a", "rSLPA NMI vs iterations (convergence)"),
    ("fig7b", "NMI vs graph size N (SLPA vs rSLPA)"),
    ("fig7c", "NMI vs average degree k"),
    ("fig7d", "NMI vs mixing parameter mu"),
    ("fig7e", "NMI vs memberships om"),
    ("fig7f", "NMI vs overlapping vertices on"),
    ("table2", "simulated web-graph statistics"),
    ("fig8", "static running time split (SLPA vs rSLPA)"),
    ("fig9", "incremental vs scratch across batch sizes"),
    ("eq8", "measured eta vs the Eq. 8 model and bounds"),
    ("abl-dyn", "incremental/scratch parity: rSLPA vs LabelRankT"),
    ("abl-msgs", "per-iteration traffic vs density"),
    ("abl-post", "hash-to-min rounds vs diameter"),
    ("abl-edits", "targeted churn workloads"),
    ("abl-part", "partitioner sensitivity"),
    ("profile", "centralized pipeline wall-clock profile"),
    (
        "serve",
        "live serve loop: 100k-edit replay with 10:1 reads (emits BENCH_serve.json)",
    ),
    (
        "serve-sharded",
        "sharded maintenance sweep: 100k-edit replay at 1/2/4/8 shards (emits BENCH_serve.json)",
    ),
    (
        "serve-p2p",
        "mailbox-mesh exchange at 4 shards, three churn biases and two publish cadences (emits BENCH_serve.json)",
    ),
    (
        "scale",
        "million-vertex storage bench: adjacency footprint and edits/s under R-MAT churn (emits BENCH_serve.json)",
    ),
    (
        "trace",
        "flight-recorded serve workload at 4 shards: Chrome trace + per-shard wall-time attribution (emits BENCH_trace.json + BENCH_serve.json)",
    ),
    (
        "churn",
        "adversarial churn suite: named break-it scenarios x shards {1,4}, roster quality scored per window (emits BENCH_churn.json)",
    ),
];

fn run(id: &str, scale: &Scale) -> bool {
    match id {
        "fig2" => exp_voting::fig2(),
        "fig3" => exp_voting::fig3(),
        "thm1" => exp_voting::thm1(20_000),
        "thm23" => exp_voting::thm23(400_000),
        "table1" => exp_synthetic::table1(scale),
        "fig7a" => exp_synthetic::fig7a(scale),
        "fig7b" => exp_synthetic::fig7b(scale),
        "fig7c" => exp_synthetic::fig7c(scale),
        "fig7d" => exp_synthetic::fig7d(scale),
        "fig7e" => exp_synthetic::fig7e(scale),
        "fig7f" => exp_synthetic::fig7f(scale),
        "table2" => exp_web::table2(scale),
        "fig8" => exp_web::fig8(scale),
        "fig9" => exp_dynamic::fig9(scale),
        "eq8" => exp_dynamic::eq8(scale),
        "abl-dyn" => exp_dynamic::abl_dyn(scale),
        "abl-msgs" => exp_ablations::abl_msgs(scale),
        "abl-post" => exp_ablations::abl_post(scale),
        "abl-edits" => exp_ablations::abl_edits(scale),
        "abl-part" => exp_ablations::abl_part(scale),
        "profile" => exp_ablations::profile(scale),
        "serve" | "serve-smoke" | "serve-rmat" | "serve-sharded" | "serve-p2p" => {
            return run_serve(id, &ServeOpts::default(), false)
        }
        "scale" => exp_scale::scale(&ScaleWorkload::full(), "BENCH_serve.json"),
        "trace" => exp_trace::trace(false, "BENCH_serve.json", "BENCH_trace.json"),
        "churn" => exp_churn::churn(&ChurnWorkload::full(), "BENCH_churn.json"),
        _ => return false,
    }
    true
}

/// Extra knobs for the serve experiments (`--shards N`, `--out FILE`,
/// `--roster-out FILE`).
struct ServeOpts {
    shards: usize,
    out: Option<String>,
    roster_out: Option<String>,
}

impl Default for ServeOpts {
    fn default() -> Self {
        Self {
            shards: 1,
            out: None,
            roster_out: None,
        }
    }
}

fn run_serve(id: &str, opts: &ServeOpts, smoke: bool) -> bool {
    let out = |default: &str| opts.out.clone().unwrap_or_else(|| default.to_string());
    let roster = opts.roster_out.as_deref();
    if (id == "serve-sharded" || id == "serve-p2p") && (opts.shards != 1 || roster.is_some()) {
        // The sweeps fix their own shard counts and check rosters
        // internally; a silently-ignored flag would mislead.
        eprintln!("{id} does not take --shards or --roster-out");
        std::process::exit(2);
    }
    match id {
        "serve" => exp_serve::serve_to(
            &ServeWorkload::full_sharded(opts.shards),
            &out("BENCH_serve.json"),
            roster,
        ),
        "serve-smoke" => exp_serve::serve_to(
            &ServeWorkload::smoke_sharded(opts.shards),
            &out("BENCH_serve.json"),
            roster,
        ),
        "serve-rmat" => exp_serve::serve_to(
            &ServeWorkload {
                shards: opts.shards,
                ..ServeWorkload::full_rmat()
            },
            &out("BENCH_serve_rmat.json"),
            roster,
        ),
        "serve-sharded" => exp_serve::serve_sharded(&out("BENCH_serve.json")),
        "serve-p2p" => exp_serve::serve_p2p(smoke, &out("BENCH_serve.json")),
        _ => return false,
    }
    true
}

fn usage() {
    eprintln!("usage: repro [--paper-scale] <experiment | all>");
    eprintln!("experiments:");
    for (id, desc) in EXPERIMENTS {
        eprintln!("  {id:<10} {desc}");
    }
    eprintln!("  serve-smoke    CI-scale serve workload (not part of 'all')");
    eprintln!("  serve-rmat     full serve workload over an R-MAT web graph (not part of 'all')");
    eprintln!("serve options: --shards N, --out FILE, --roster-out FILE");
    eprintln!("scale options: --smoke (n=2^17 instead of 2^20), --out FILE");
    eprintln!("serve-p2p options: --smoke (CI-scale localized-churn sweep at 1/4/8 shards)");
    eprintln!(
        "churn options: --smoke (CI-scale scenario sweep), --scenario NAME (single-scenario \
         replay), --out FILE (default BENCH_churn.json)"
    );
    eprintln!("trace options: --smoke, --out FILE, --trace-out FILE (default BENCH_trace.json)");
}

/// Pull `--flag value` pairs out of `args`, returning the value of `flag`.
fn take_option(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    }
    args.remove(i);
    Some(args.remove(i))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if let Some(i) = args.iter().position(|a| a == "--paper-scale") {
        args.remove(i);
        Scale::paper()
    } else {
        Scale::quick()
    };
    let smoke = if let Some(i) = args.iter().position(|a| a == "--smoke") {
        args.remove(i);
        true
    } else {
        false
    };
    let serve_opts = ServeOpts {
        shards: take_option(&mut args, "--shards")
            .map(|v| {
                v.parse().unwrap_or_else(|_| {
                    eprintln!("--shards: {v:?} is not a number");
                    std::process::exit(2);
                })
            })
            .unwrap_or(1),
        out: take_option(&mut args, "--out"),
        roster_out: take_option(&mut args, "--roster-out"),
    };
    let trace_out = take_option(&mut args, "--trace-out");
    let scenario_arg = take_option(&mut args, "--scenario");
    let Some(target) = args.first() else {
        usage();
        std::process::exit(2);
    };
    let serve_flags_given =
        serve_opts.shards != 1 || serve_opts.out.is_some() || serve_opts.roster_out.is_some();
    if serve_flags_given
        && !target.starts_with("serve")
        && target != "scale"
        && target != "trace"
        && target != "churn"
    {
        eprintln!("--shards/--out/--roster-out only apply to serve/scale/trace/churn experiments");
        std::process::exit(2);
    }
    if smoke && target != "scale" && target != "trace" && target != "serve-p2p" && target != "churn"
    {
        eprintln!(
            "--smoke only applies to the scale, trace, serve-p2p, and churn experiments \
             (use serve-smoke etc.)"
        );
        std::process::exit(2);
    }
    if trace_out.is_some() && target != "trace" {
        eprintln!("--trace-out only applies to the trace experiment");
        std::process::exit(2);
    }
    if scenario_arg.is_some() && target != "churn" {
        eprintln!("--scenario only applies to the churn experiment");
        std::process::exit(2);
    }
    let started = std::time::Instant::now();
    if target == "all" {
        for (id, _) in EXPERIMENTS {
            let t = std::time::Instant::now();
            assert!(run(id, &scale), "unknown experiment {id}");
            eprintln!("[{id} done in {:.1}s]\n", t.elapsed().as_secs_f64());
        }
    } else if target == "scale" {
        if serve_opts.shards != 1 || serve_opts.roster_out.is_some() {
            eprintln!("scale takes only --smoke and --out");
            std::process::exit(2);
        }
        let w = if smoke {
            ScaleWorkload::smoke()
        } else {
            ScaleWorkload::full()
        };
        let out = serve_opts
            .out
            .clone()
            .unwrap_or_else(|| "BENCH_serve.json".to_string());
        exp_scale::scale(&w, &out);
    } else if target == "trace" {
        if serve_opts.shards != 1 || serve_opts.roster_out.is_some() {
            eprintln!("trace takes only --smoke, --out, and --trace-out");
            std::process::exit(2);
        }
        let out = serve_opts
            .out
            .clone()
            .unwrap_or_else(|| "BENCH_serve.json".to_string());
        let trace_file = trace_out.unwrap_or_else(|| "BENCH_trace.json".to_string());
        exp_trace::trace(smoke, &out, &trace_file);
    } else if target == "churn" {
        if serve_opts.shards != 1 || serve_opts.roster_out.is_some() {
            eprintln!("churn takes only --smoke, --scenario, and --out");
            std::process::exit(2);
        }
        let mut w = if smoke {
            ChurnWorkload::smoke()
        } else {
            ChurnWorkload::full()
        };
        w.scenario = scenario_arg;
        let out = serve_opts
            .out
            .clone()
            .unwrap_or_else(|| "BENCH_churn.json".to_string());
        exp_churn::churn(&w, &out);
    } else if target.starts_with("serve") {
        if !run_serve(target, &serve_opts, smoke) {
            eprintln!("unknown experiment: {target}\n");
            usage();
            std::process::exit(2);
        }
    } else if !run(target, &scale) {
        eprintln!("unknown experiment: {target}\n");
        usage();
        std::process::exit(2);
    }
    eprintln!("[total {:.1}s]", started.elapsed().as_secs_f64());
}

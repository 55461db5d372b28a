//! Table I and Figures 7a–7f: accuracy on the LFR benchmark.

use rslpa_baselines::{run_slpa, SlpaConfig};
use rslpa_core::{postprocess, run_propagation};
use rslpa_gen::lfr::LfrParams;
use rslpa_metrics::overlapping_nmi;

use crate::report::{f3, Table};
use crate::scale::Scale;

/// NMI of one rSLPA run against ground truth.
pub fn rslpa_nmi(params: &LfrParams, t_max: usize, seed: u64) -> f64 {
    let instance = params.generate().expect("LFR generation");
    let n = instance.graph.num_vertices();
    let state = run_propagation(&instance.graph, t_max, seed);
    let cover = postprocess(&instance.graph, &state).cover;
    overlapping_nmi(&cover, &instance.ground_truth, n)
}

/// NMI of one SLPA run against ground truth (τ ≈ 1/om per the paper).
pub fn slpa_nmi(params: &LfrParams, t_max: usize, seed: u64) -> f64 {
    let instance = params.generate().expect("LFR generation");
    let n = instance.graph.num_vertices();
    let result = run_slpa(
        &instance.graph,
        &SlpaConfig {
            iterations: t_max,
            threshold: 0.2,
            seed,
        },
    );
    overlapping_nmi(&result.cover, &instance.ground_truth, n)
}

fn avg(runs: u64, mut f: impl FnMut(u64) -> f64) -> f64 {
    (0..runs).map(&mut f).sum::<f64>() / runs as f64
}

/// Table I: parameter glossary + achieved statistics at the defaults.
pub fn table1(scale: &Scale) {
    let mut glossary = Table::new(
        "Table I — LFR parameters (defaults in parentheses)",
        &["parameter", "description", "default"],
    );
    glossary.row(vec![
        "N".into(),
        "number of vertices".into(),
        scale.lfr_n.to_string(),
    ]);
    glossary.row(vec![
        "k".into(),
        "average degree".into(),
        format!("{}", scale.lfr_k),
    ]);
    glossary.row(vec![
        "maxk".into(),
        "max degree".into(),
        scale.lfr_maxk.to_string(),
    ]);
    glossary.row(vec!["mu".into(), "mixing parameter".into(), "0.1".into()]);
    glossary.row(vec![
        "on".into(),
        "overlapping vertices".into(),
        "0.1 N".into(),
    ]);
    glossary.row(vec![
        "om".into(),
        "memberships of overlapping".into(),
        "2".into(),
    ]);
    glossary.print();

    let params = scale.lfr(scale.lfr_n, 42);
    let instance = params.generate().expect("LFR generation");
    let stats = instance.stats();
    let mut achieved = Table::new(
        "Table I (cont.) — achieved statistics of the default instance",
        &["statistic", "value"],
    );
    achieved.row(vec!["vertices".into(), stats.n.to_string()]);
    achieved.row(vec!["avg degree".into(), f3(stats.avg_degree)]);
    achieved.row(vec!["max degree".into(), stats.max_degree.to_string()]);
    achieved.row(vec!["achieved mixing".into(), f3(stats.mixing)]);
    achieved.row(vec![
        "communities".into(),
        stats.num_communities.to_string(),
    ]);
    achieved.row(vec![
        "community sizes".into(),
        format!(
            "{}..{}",
            stats.community_size_range.0, stats.community_size_range.1
        ),
    ]);
    achieved.row(vec![
        "overlapping vertices".into(),
        stats.overlapping_vertices.to_string(),
    ]);
    achieved.print();
}

/// Fig. 7a: rSLPA NMI vs iteration count T, for several N.
pub fn fig7a(scale: &Scale) {
    let ns = [
        scale.lfr_n_sweep[0],
        scale.lfr_n,
        *scale.lfr_n_sweep.last().unwrap(),
    ];
    let mut headers: Vec<String> = vec!["T".into()];
    headers.extend(ns.iter().map(|n| format!("N={n}")));
    let href: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new("Fig. 7a — rSLPA NMI vs iterations (convergence)", &href);
    for &t in &scale.t_sweep {
        let mut row = vec![t.to_string()];
        for &n in &ns {
            let score = avg(scale.runs, |seed| {
                rslpa_nmi(&scale.lfr(n, 100 + seed), t, seed)
            });
            row.push(f3(score));
        }
        table.row(row);
    }
    table.print();
    println!(
        "expected shape: stable for T >= {} (paper: T >= 200).\n",
        scale.t_rslpa
    );
}

/// Shared driver for Figs. 7b–7f: sweep one LFR parameter, compare both
/// algorithms.
fn sweep(title: &str, xlabel: &str, scale: &Scale, points: Vec<(String, LfrParams)>) {
    let mut table = Table::new(title, &[xlabel, "SLPA", "rSLPA"]);
    for (x, params) in points {
        let s = avg(scale.runs, |seed| {
            slpa_nmi(&params, scale.t_slpa, 300 + seed)
        });
        let r = avg(scale.runs, |seed| {
            rslpa_nmi(&params, scale.t_rslpa, 600 + seed)
        });
        table.row(vec![x, f3(s), f3(r)]);
    }
    table.print();
}

/// Fig. 7b: NMI vs N.
pub fn fig7b(scale: &Scale) {
    let points = scale
        .lfr_n_sweep
        .iter()
        .map(|&n| (n.to_string(), scale.lfr(n, 7)))
        .collect();
    sweep("Fig. 7b — NMI vs graph size N", "N", scale, points);
    println!("expected shape: both high and stable across N.\n");
}

/// Fig. 7c: NMI vs average degree k.
pub fn fig7c(scale: &Scale) {
    let ks: Vec<f64> = if scale.lfr_maxk >= 100 {
        vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0]
    } else {
        vec![8.0, 14.0, 20.0, 26.0, 32.0, 40.0]
    };
    let points = ks
        .iter()
        .map(|&k| {
            let mut p = scale.lfr(scale.lfr_n, 11);
            p.avg_degree = k;
            (format!("{k}"), p)
        })
        .collect();
    sweep("Fig. 7c — NMI vs average degree k", "k", scale, points);
    println!("expected shape: grows with k, flat once dense enough.\n");
}

/// Fig. 7d: NMI vs mixing µ.
pub fn fig7d(scale: &Scale) {
    let points = [0.10, 0.15, 0.20, 0.25, 0.30]
        .iter()
        .map(|&mu| {
            let mut p = scale.lfr(scale.lfr_n, 13);
            p.mixing = mu;
            (format!("{mu:.2}"), p)
        })
        .collect();
    sweep("Fig. 7d — NMI vs mixing parameter mu", "mu", scale, points);
    println!("expected shape: SLPA ~flat; rSLPA high but degrading slowly.\n");
}

/// Fig. 7e: NMI vs memberships om.
pub fn fig7e(scale: &Scale) {
    let points = [2usize, 3, 4, 5]
        .iter()
        .map(|&om| {
            let mut p = scale.lfr(scale.lfr_n, 17);
            p.memberships = om;
            (om.to_string(), p)
        })
        .collect();
    sweep("Fig. 7e — NMI vs memberships om", "om", scale, points);
    println!("expected shape: both decline; rSLPA ahead for om >= 3.\n");
}

/// Fig. 7f: NMI vs overlapping vertices on.
pub fn fig7f(scale: &Scale) {
    let points = [0.10, 0.15, 0.20, 0.25, 0.30]
        .iter()
        .map(|&frac| {
            let mut p = scale.lfr(scale.lfr_n, 19);
            p.overlapping_vertices = (frac * scale.lfr_n as f64) as usize;
            (format!("{:.2}N", frac), p)
        })
        .collect();
    sweep(
        "Fig. 7f — NMI vs overlapping vertices on",
        "on",
        scale,
        points,
    );
    println!("expected shape: both decline as boundaries blur.\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny-scale smoke: both algorithms beat a random baseline on LFR.
    #[test]
    fn nmi_helpers_produce_sane_scores() {
        let scale = Scale::quick();
        let params = scale.lfr(400, 5);
        let r = rslpa_nmi(&params, 60, 1);
        let s = slpa_nmi(&params, 40, 1);
        assert!(r > 0.4, "rSLPA NMI {r}");
        assert!(s > 0.4, "SLPA NMI {s}");
    }
}

//! Exact voting-process distributions (paper §III-A, Figs. 2–3, Thm. 1).
//!
//! Two families of distributions:
//!
//! * Over a *fixed received multiset* `M_i` (Fig. 3): [`voting_distribution`]
//!   (most-frequent label, ties split uniformly) vs [`uniform_distribution`]
//!   (proportional to frequency). Theorem 1's `max P_u ≤ max P_v` is a
//!   statement about these two.
//! * Over *random sends* (Fig. 2): voters hold label sequences and each
//!   uniformly sends one label; [`plurality_win_distribution`] enumerates
//!   the full product space exactly (exponential in the number of voters —
//!   intended for the small examples the figures analyze).

use rslpa_graph::{FxHashMap, Label};

/// Probability of each label winning a plurality vote over the fixed
/// multiset `m` (ties split uniformly among tied labels).
pub fn voting_distribution(m: &[Label]) -> FxHashMap<Label, f64> {
    let mut counts: FxHashMap<Label, usize> = FxHashMap::default();
    for &l in m {
        *counts.entry(l).or_insert(0) += 1;
    }
    let max = counts.values().copied().max().unwrap_or(0);
    let winners: Vec<Label> = counts
        .iter()
        .filter(|(_, &c)| c == max)
        .map(|(&l, _)| l)
        .collect();
    let share = 1.0 / winners.len() as f64;
    let mut dist: FxHashMap<Label, f64> = counts.keys().map(|&l| (l, 0.0)).collect();
    for w in winners {
        dist.insert(w, share);
    }
    dist
}

/// Probability of each label being uniformly picked from the fixed
/// multiset `m` (proportional to frequency).
pub fn uniform_distribution(m: &[Label]) -> FxHashMap<Label, f64> {
    let mut dist: FxHashMap<Label, f64> = FxHashMap::default();
    if m.is_empty() {
        return dist;
    }
    let w = 1.0 / m.len() as f64;
    for &l in m {
        *dist.entry(l).or_insert(0.0) += w;
    }
    dist
}

/// Exact win distribution of plurality voting when each of the `voters`
/// uniformly sends one label from its sequence (Fig. 2's setting).
///
/// Enumerates all `Π |L_i|` outcomes; intended for few voters.
pub fn plurality_win_distribution(voters: &[Vec<Label>]) -> FxHashMap<Label, f64> {
    assert!(!voters.is_empty(), "need at least one voter");
    assert!(
        voters.iter().all(|v| !v.is_empty()),
        "voters must hold labels"
    );
    let total: f64 = voters.iter().map(|v| v.len() as f64).product();
    assert!(total <= 1e7, "enumeration too large ({total} outcomes)");
    let mut dist: FxHashMap<Label, f64> = FxHashMap::default();
    let mut picked: Vec<Label> = Vec::with_capacity(voters.len());
    enumerate(voters, 0, 1.0 / total, &mut picked, &mut dist);
    dist
}

fn enumerate(
    voters: &[Vec<Label>],
    i: usize,
    p_outcome: f64,
    picked: &mut Vec<Label>,
    dist: &mut FxHashMap<Label, f64>,
) {
    if i == voters.len() {
        for (l, share) in voting_distribution(picked) {
            if share > 0.0 {
                *dist.entry(l).or_insert(0.0) += p_outcome * share;
            }
        }
        return;
    }
    for &l in &voters[i] {
        picked.push(l);
        enumerate(voters, i + 1, p_outcome, picked, dist);
        picked.pop();
    }
}

/// Max probability of each process over the same multiset — the two sides
/// of Theorem 1.
pub fn theorem1_max_probabilities(m: &[Label]) -> (f64, f64) {
    let max_of = |d: &FxHashMap<Label, f64>| d.values().copied().fold(0.0, f64::max);
    (
        max_of(&uniform_distribution(m)),
        max_of(&voting_distribution(m)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(d: &FxHashMap<Label, f64>, l: Label) -> f64 {
        d.get(&l).copied().unwrap_or(0.0)
    }

    #[test]
    fn fig3_fixed_multiset() {
        // M_i = (1, 2, 2, 2, 3, 3, 3, 4, 4, 5) — paper Fig. 3.
        let m = [1, 2, 2, 2, 3, 3, 3, 4, 4, 5];
        let v = voting_distribution(&m);
        assert!((get(&v, 2) - 0.5).abs() < 1e-12);
        assert!((get(&v, 3) - 0.5).abs() < 1e-12);
        assert_eq!(get(&v, 1), 0.0);
        let u = uniform_distribution(&m);
        assert!((get(&u, 1) - 0.1).abs() < 1e-12);
        assert!((get(&u, 2) - 0.3).abs() < 1e-12);
        assert!((get(&u, 3) - 0.3).abs() < 1e-12);
        assert!((get(&u, 4) - 0.2).abs() < 1e-12);
        assert!((get(&u, 5) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn fig2a_label1_dominates() {
        // Voters (1,2), (1,2), (1,1): the four equiprobable outcomes give
        // P(1) = 3/4, P(2) = 1/4 exactly.
        let d = plurality_win_distribution(&[vec![1, 2], vec![1, 2], vec![1, 1]]);
        assert!((get(&d, 1) - 0.75).abs() < 1e-12, "P(1) = {}", get(&d, 1));
        assert!((get(&d, 2) - 0.25).abs() < 1e-12);
        assert_eq!(get(&d, 3), 0.0);
        let sum: f64 = d.values().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fig2b_changing_one_voter_perturbs_all_labels() {
        // (1,2),(1,2),(1,3): exact enumeration gives P(1) = 7/12,
        // P(2) = 1/3, P(3) = 1/12. The paper's point stands — touching
        // voter 3 perturbs *every* label's probability, including label 2
        // which no one edited. (The paper's prose says P(2) "drops"; under
        // the uniform tie-breaking its own Fig. 1 specifies, P(2) in fact
        // rises from 1/4 to 1/3.)
        let a = plurality_win_distribution(&[vec![1, 2], vec![1, 2], vec![1, 1]]);
        let b = plurality_win_distribution(&[vec![1, 2], vec![1, 2], vec![1, 3]]);
        assert!((get(&b, 1) - 7.0 / 12.0).abs() < 1e-12);
        assert!((get(&b, 2) - 1.0 / 3.0).abs() < 1e-12);
        assert!((get(&b, 3) - 1.0 / 12.0).abs() < 1e-12);
        assert!(get(&b, 1) < get(&a, 1), "P(1) decreases");
        assert!(get(&b, 3) > get(&a, 3), "P(3) increases");
        assert!(
            (get(&b, 2) - get(&a, 2)).abs() > 0.05,
            "P(2) moved although untouched"
        );
    }

    #[test]
    fn fig2c_exchanging_labels_changes_distribution() {
        // (2,2),(1,1),(1,1): populations are as in Fig. 2a (four 1s, two
        // 2s) but the distribution changes dramatically: label 1 always
        // has 2 votes vs 1 for label 2.
        let d = plurality_win_distribution(&[vec![2, 2], vec![1, 1], vec![1, 1]]);
        assert!((get(&d, 1) - 1.0).abs() < 1e-12);
        assert_eq!(get(&d, 2), 0.0);
    }

    #[test]
    fn fig2d_removing_a_voter_revives_label2() {
        // (2,2),(1,1): deterministic 1–1 tie ⇒ each wins 0.5.
        let d = plurality_win_distribution(&[vec![2, 2], vec![1, 1]]);
        assert!((get(&d, 1) - 0.5).abs() < 1e-12);
        assert!((get(&d, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn theorem1_holds_on_fixed_examples() {
        for m in [
            vec![1, 2, 2, 2, 3, 3, 3, 4, 4, 5],
            vec![1, 1, 1],
            vec![1, 2],
            vec![1, 2, 3, 4, 5],
            vec![7, 7, 8, 8, 9],
        ] {
            let (pu, pv) = theorem1_max_probabilities(&m);
            assert!(pu <= pv + 1e-12, "max Pu {pu} > max Pv {pv} for {m:?}");
        }
    }

    #[test]
    fn theorem1_random_multisets() {
        use rslpa_graph::rng::DetRng;
        let mut rng = DetRng::new(9);
        for _ in 0..500 {
            let len = 1 + rng.bounded(20) as usize;
            let m: Vec<Label> = (0..len).map(|_| rng.bounded(6) as Label).collect();
            let (pu, pv) = theorem1_max_probabilities(&m);
            assert!(pu <= pv + 1e-12, "violated on {m:?}");
        }
    }

    #[test]
    fn distributions_sum_to_one() {
        let m = [3, 3, 1, 4];
        let sv: f64 = voting_distribution(&m).values().sum();
        let su: f64 = uniform_distribution(&m).values().sum();
        assert!((sv - 1.0).abs() < 1e-12);
        assert!((su - 1.0).abs() < 1e-12);
        let sp: f64 = plurality_win_distribution(&[vec![1, 2, 3], vec![2, 3], vec![3]])
            .values()
            .sum();
        assert!((sp - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_picking_is_smoother_never_zero_on_present_labels() {
        // The smoothing property: every label present in M gets positive
        // probability under uniform picking; voting zeroes the minority.
        let m = [1, 1, 1, 2];
        let u = uniform_distribution(&m);
        let v = voting_distribution(&m);
        assert!(get(&u, 2) > 0.0);
        assert_eq!(get(&v, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one voter")]
    fn empty_voters_panic() {
        let _ = plurality_win_distribution(&[]);
    }
}

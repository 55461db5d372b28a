//! Barrier micro-bench (`repro barrier`): the mesh round protocol cost.
//!
//! The mailbox mesh originally synchronized each exchange round with two
//! `std::sync::Barrier` waits (one to publish sent-counters, one to agree
//! on quiescence). The sense-reversing barrier collapsed that to a single
//! wait per round by snapshotting the monotone sent counter in the
//! leader's pre-release hook. This bench isolates the protocol delta —
//! `2 × std::sync::Barrier::wait` vs `1 × SenseBarrier::wait` per round —
//! across thread counts, without any of the surrounding exchange work.
//!
//! The sweep is spliced into `BENCH_serve.json` as a `"barrier"` block
//! (appended to an existing serve payload when one is present, so one
//! committed file carries both the traced workload and this micro-bench).
//! On a 1-core host the numbers measure park/unpark and scheduling cost,
//! not cache-line contention — `config.cores` records which regime a
//! committed sweep ran in.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use rslpa_core::SenseBarrier;

use crate::host_cores;
use crate::report::Table;

/// Rounds per cell — enough to amortize thread spawn/join noise while
/// keeping the whole sweep under a second on a laptop.
const ROUNDS: usize = 10_000;

/// Thread counts swept (the mesh runs one thread per shard; 2/4/8 match
/// the serve sweeps).
const THREADS: [usize; 3] = [2, 4, 8];

/// One cell's measurements, in ns per round (a round = one full
/// release-everyone cycle of the protocol under test).
struct Cell {
    threads: usize,
    /// PR 7 protocol: two `std::sync::Barrier` waits per round.
    std_double_ns: f64,
    /// Current protocol: one `SenseBarrier` wait per round.
    sense_single_ns: f64,
}

fn bench_std_double(threads: usize) -> f64 {
    let barrier = Arc::new(Barrier::new(threads));
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                for _ in 0..ROUNDS {
                    barrier.wait();
                    barrier.wait();
                }
            });
        }
    });
    started.elapsed().as_nanos() as f64 / ROUNDS as f64
}

fn bench_sense_single(threads: usize) -> f64 {
    let barrier = Arc::new(SenseBarrier::new(threads));
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                let mut sense = false;
                for _ in 0..ROUNDS {
                    barrier.wait(&mut sense);
                }
            });
        }
    });
    started.elapsed().as_nanos() as f64 / ROUNDS as f64
}

/// Run the sweep and return one cell per thread count.
fn sweep() -> Vec<Cell> {
    THREADS
        .iter()
        .map(|&threads| Cell {
            threads,
            std_double_ns: bench_std_double(threads),
            sense_single_ns: bench_sense_single(threads),
        })
        .collect()
}

/// Splice `block` (a `"key": value` fragment) into an existing top-level
/// JSON object, or wrap it in a fresh one. Keeps `repro trace` +
/// `repro barrier` composable into a single committed `BENCH_serve.json`:
/// run trace first (it rewrites the whole file), then barrier appends.
fn splice_block(out_path: &str, block: &str) -> String {
    if let Ok(existing) = std::fs::read_to_string(out_path) {
        let trimmed = existing.trim_end();
        // Only append to a well-formed object that doesn't already carry
        // a barrier block (a rerun without a fresh trace run would
        // otherwise duplicate the key).
        if trimmed.starts_with('{') && trimmed.ends_with('}') && !existing.contains("\"barrier\":")
        {
            let body = &trimmed[..trimmed.len() - 1];
            return format!(
                "{},\n  {}\n}}\n",
                body.trim_end().trim_end_matches(','),
                block
            );
        }
    }
    format!("{{\n  \"experiment\": \"barrier\",\n  {block}\n}}\n")
}

/// Run the micro-bench, print the table, and fold the `"barrier"` block
/// into `out_path`.
pub fn barrier(out_path: &str) {
    eprintln!(
        "[barrier] {} rounds per cell, threads {:?}, {} core(s)",
        ROUNDS,
        THREADS,
        host_cores()
    );
    let cells = sweep();
    let mut t = Table::new(
        "mesh round barrier protocol (ns/round)".to_string(),
        &["threads", "2x std::Barrier", "1x SenseBarrier", "ratio"],
    );
    for c in &cells {
        t.row(vec![
            c.threads.to_string(),
            format!("{:.0}", c.std_double_ns),
            format!("{:.0}", c.sense_single_ns),
            format!("{:.2}x", c.std_double_ns / c.sense_single_ns.max(1.0)),
        ]);
    }
    t.print();

    let list = |f: &dyn Fn(&Cell) -> String| -> String {
        cells.iter().map(f).collect::<Vec<_>>().join(", ")
    };
    let block = format!(
        "\"barrier\": {{\n    \"rounds_per_cell\": {ROUNDS},\n    \"cores\": {},\n    \
         \"note\": \"1-core hosts measure park/unpark + scheduling, not contention\",\n    \
         \"threads\": [{}],\n    \"std_double_wait_ns_per_round\": [{}],\n    \
         \"sense_single_wait_ns_per_round\": [{}],\n    \"round_cost_ratio\": [{}]\n  }}",
        host_cores(),
        list(&|c| c.threads.to_string()),
        list(&|c| format!("{:.0}", c.std_double_ns)),
        list(&|c| format!("{:.0}", c.sense_single_ns)),
        list(&|c| format!("{:.3}", c.std_double_ns / c.sense_single_ns.max(1.0))),
    );
    let json = splice_block(out_path, &block);
    std::fs::write(out_path, &json).expect("write BENCH_serve.json");
    eprintln!("[barrier] wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splice_appends_to_an_existing_object() {
        let dir = std::env::temp_dir().join(format!("rslpa-barrier-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let path = path.to_str().unwrap();

        // No file yet: standalone object.
        let fresh = splice_block(path, "\"barrier\": {\"rounds_per_cell\": 1}");
        assert!(fresh.starts_with("{\n  \"experiment\": \"barrier\""));
        assert_eq!(fresh.matches('{').count(), fresh.matches('}').count());

        // Existing serve payload: block appended before the closing brace.
        std::fs::write(
            path,
            "{\n  \"experiment\": \"serve\",\n  \"final_epoch\": 3\n}\n",
        )
        .unwrap();
        let spliced = splice_block(path, "\"barrier\": {\"rounds_per_cell\": 1}");
        assert!(spliced.contains("\"experiment\": \"serve\""));
        assert!(spliced.contains("\"barrier\": {\"rounds_per_cell\": 1}"));
        assert_eq!(spliced.matches('{').count(), spliced.matches('}').count());

        // Already carries a barrier block: start over instead of duplicating.
        std::fs::write(path, &spliced).unwrap();
        let again = splice_block(path, "\"barrier\": {\"rounds_per_cell\": 2}");
        assert!(again.starts_with("{\n  \"experiment\": \"barrier\""));
        assert_eq!(again.matches("\"barrier\":").count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn micro_sweep_produces_positive_costs() {
        // One tiny cell end-to-end: both protocols complete and cost
        // something. (Full ROUNDS would be slow under the test profile.)
        let barrier = Arc::new(SenseBarrier::new(2));
        let started = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let mut sense = false;
                    for _ in 0..64 {
                        barrier.wait(&mut sense);
                    }
                });
            }
        });
        assert!(started.elapsed().as_nanos() > 0);
    }
}

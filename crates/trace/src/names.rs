//! Statically interned span names: the serve-path taxonomy.
//!
//! Records store a `u16` name id instead of a string so a span record stays
//! four words; the table below maps ids back to names at export time. The
//! ids are shared across crates (`rslpa_core` emits mesh-level spans,
//! `rslpa_serve` everything else), which is why the taxonomy lives here in
//! the leaf crate rather than in the serving layer.
//!
//! Ids are part of the record format, so an id whose span is gone stays
//! reserved rather than being reused: nothing emits `publish_collect`,
//! `upkeep` or `collect` any more (counter upkeep runs on the maintenance
//! lane at every shard count, and publish collects nothing from the
//! workers), but readers such as `servebench` still name them.
//!
//! | id | name              | lane        | covers                                        |
//! |----|-------------------|-------------|-----------------------------------------------|
//! | 0  | `queue_drain`     | maintenance | blocked on [`pop`]ping the edit queue          |
//! | 1  | `flush`           | maintenance | one micro-batch: resolve → repair → counters  |
//! | 2  | `resolve`         | maintenance | net-resolving queued ops against the graph    |
//! | 3  | `repair`          | maintenance | Correction Propagation over the dirty region  |
//! | 4  | `counter_upkeep`  | maintenance | per-edge counter maintenance (every engine)   |
//! | 5  | `publish`         | maintenance | snapshot publication, all sub-phases          |
//! | 6  | `publish_collect` | maintenance | reserved; no longer emitted                   |
//! | 7  | `publish_weights` | maintenance | assembling + thresholding edge weights        |
//! | 8  | `publish_roster`  | maintenance | building + swapping the community snapshot    |
//! | 9  | `publish_migrate` | maintenance | repartitioning row migration                  |
//! | 10 | `mailbox_wait`    | worker      | blocked on the command sub-queue              |
//! | 11 | `shard_flush`     | worker      | applying a routed delta batch (phase A)       |
//! | 12 | `exchange`        | worker      | one exchange session (all rounds)             |
//! | 13 | `exchange_round`  | worker      | one mesh round: drain inbox, step, send       |
//! | 14 | `barrier_wait`    | worker      | parked at the mesh round barrier (total)      |
//! | 15 | `upkeep`          | worker      | reserved; no longer emitted                   |
//! | 16 | `collect`         | worker      | reserved; no longer emitted                   |
//! | 17 | `migrate`         | worker      | extract/adopt row migration                   |
//! | 18 | `barrier_arrive`  | worker      | barrier phase: waiting for stragglers         |
//! | 19 | `barrier_depart`  | worker      | barrier phase: release-to-resume latency      |
//!
//! [`pop`]: https://doc.rust-lang.org/std/sync/mpsc/

/// Maintenance lane: blocked waiting for edits on the queue.
pub const QUEUE_DRAIN: u16 = 0;
/// Maintenance lane: one full flush (resolve + repair + counter upkeep).
pub const FLUSH: u16 = 1;
/// Maintenance lane: net-resolving queued ops into an applicable batch.
pub const RESOLVE: u16 = 2;
/// Maintenance lane: the repair-engine apply (Correction Propagation).
pub const REPAIR: u16 = 3;
/// Maintenance lane: per-edge common-label counter upkeep, for the
/// single writer and the mesh alike.
pub const COUNTER_UPKEEP: u16 = 4;
/// Maintenance lane: snapshot publication (parent of the sub-phases).
pub const PUBLISH: u16 = 5;
/// Reserved (was the maintenance lane's publish collect); no longer
/// emitted.
pub const PUBLISH_COLLECT: u16 = 6;
/// Maintenance lane: assembling and thresholding edge weights.
pub const PUBLISH_WEIGHTS: u16 = 7;
/// Maintenance lane: building and swapping the community snapshot.
pub const PUBLISH_ROSTER: u16 = 8;
/// Maintenance lane: publish-time repartitioning and row migration.
pub const PUBLISH_MIGRATE: u16 = 9;
/// Worker lane: blocked on the coordinator's command sub-queue.
pub const MAILBOX_WAIT: u16 = 10;
/// Worker lane: applying a routed delta batch (repair-wave phase A).
pub const SHARD_FLUSH: u16 = 11;
/// Worker lane: a whole exchange-to-quiescence session.
pub const EXCHANGE: u16 = 12;
/// Worker lane: one mesh round (drain inbox, step vertices, send).
pub const EXCHANGE_ROUND: u16 = 13;
/// Worker lane: parked at the mesh round barrier (arrive + depart).
pub const BARRIER_WAIT: u16 = 14;
/// Reserved (was the worker lane's counter-partition upkeep); no longer
/// emitted.
pub const UPKEEP: u16 = 15;
/// Reserved (was the worker lane's publish-collect packaging); no longer
/// emitted.
pub const COLLECT: u16 = 16;
/// Worker lane: extract/adopt row migration during repartitioning.
pub const MIGRATE: u16 = 17;
/// Worker lane: barrier arrive phase — blocked until the round's leader
/// released (waiting for stragglers; protocol/imbalance cost).
pub const BARRIER_ARRIVE: u16 = 18;
/// Worker lane: barrier depart phase — between the leader's release and
/// this thread resuming (wakeup/scheduling latency).
pub const BARRIER_DEPART: u16 = 19;

/// The interned name table, indexed by span id.
pub const NAMES: &[&str] = &[
    "queue_drain",
    "flush",
    "resolve",
    "repair",
    "counter_upkeep",
    "publish",
    "publish_collect",
    "publish_weights",
    "publish_roster",
    "publish_migrate",
    "mailbox_wait",
    "shard_flush",
    "exchange",
    "exchange_round",
    "barrier_wait",
    "upkeep",
    "collect",
    "migrate",
    "barrier_arrive",
    "barrier_depart",
];

/// Resolve a span id to its interned name (`"?"` for out-of-table ids,
/// which only appear if a foreign producer wrote records).
pub fn name_of(id: u16) -> &'static str {
    NAMES.get(id as usize).copied().unwrap_or("?")
}

//! Exhaustive interleaving models of the workspace's concurrency planes.
//!
//! Each model re-states one real component at the granularity of its
//! shared-memory operations and lets the scheduler enumerate every
//! schedule. Paired with most "fixed" models is a seeded-violation
//! variant proving the checker still catches the bug class the real
//! code is defending against.

use coopcache_interleave::{explore, Config, MockAtomicU64, MockMutex, MockThread, Outcome, VarId};

// ---------------------------------------------------------------------------
// StatsRegistry: record/snapshot/total (crates/obs/src/stats.rs)
// ---------------------------------------------------------------------------

const V_C0: VarId = 0;
const V_C1: VarId = 1;
const V_READER: VarId = 2;

#[derive(Clone)]
struct StatsModel {
    counts: [MockAtomicU64; 2],
    snap: [u64; 2],
    total: u64,
    total_done: bool,
}

impl StatsModel {
    fn new() -> Self {
        Self {
            counts: [MockAtomicU64::new(V_C0, 0), MockAtomicU64::new(V_C1, 0)],
            snap: [0; 2],
            total: 0,
            total_done: false,
        }
    }
}

fn stats_recorder() -> MockThread<StatsModel> {
    MockThread::new("recorder")
        .step_rw("record-kind0", &[], &[V_C0], |s: &mut StatsModel| {
            s.counts[0].fetch_add(1);
        })
        .step_rw("record-kind1", &[], &[V_C1], |s: &mut StatsModel| {
            s.counts[1].fetch_add(1);
        })
}

/// The pre-fix `total()`: a second independent pass over the live
/// atomics. A record landing between the snapshot pass and the total
/// pass makes `total()` disagree with the snapshot the caller just took.
#[test]
fn stats_total_second_pass_disagrees_with_snapshot() {
    let reader = MockThread::new("scraper")
        .step_rw("snap0", &[V_C0], &[V_READER], |s: &mut StatsModel| {
            s.snap[0] = s.counts[0].load();
        })
        .step_rw("snap1", &[V_C1], &[V_READER], |s: &mut StatsModel| {
            s.snap[1] = s.counts[1].load();
        })
        .step_rw("total-live0", &[V_C0], &[V_READER], |s: &mut StatsModel| {
            s.total = s.counts[0].load();
        })
        .step_rw("total-live1", &[V_C1], &[V_READER], |s: &mut StatsModel| {
            s.total += s.counts[1].load();
            s.total_done = true;
        });
    let out = explore(
        &StatsModel::new(),
        &[stats_recorder(), reader],
        |s| {
            if s.total_done && s.total != s.snap[0] + s.snap[1] {
                return Err(format!(
                    "total() {} != sum of caller's snapshot {}",
                    s.total,
                    s.snap[0] + s.snap[1]
                ));
            }
            Ok(())
        },
        &[V_READER],
        Config::default(),
    );
    assert!(
        matches!(out, Outcome::InvariantViolation { .. }),
        "the two-pass total must be caught: {out:?}"
    );
}

/// The fixed `total()`: derived from the same single snapshot pass, so
/// it can never disagree with that snapshot, in any interleaving.
#[test]
fn stats_total_from_one_snapshot_pass_is_consistent() {
    let reader = MockThread::new("scraper")
        .step_rw("snap0", &[V_C0], &[V_READER], |s: &mut StatsModel| {
            s.snap[0] = s.counts[0].load();
        })
        .step_rw("snap1", &[V_C1], &[V_READER], |s: &mut StatsModel| {
            s.snap[1] = s.counts[1].load();
        })
        .step_rw(
            "total-derive",
            &[V_READER],
            &[V_READER],
            |s: &mut StatsModel| {
                s.total = s.snap[0] + s.snap[1];
                s.total_done = true;
            },
        );
    let out = explore(
        &StatsModel::new(),
        &[stats_recorder(), reader],
        |s| {
            if s.total_done && s.total != s.snap[0] + s.snap[1] {
                return Err("derived total diverged from its snapshot".to_string());
            }
            Ok(())
        },
        &[V_READER],
        Config::default(),
    );
    assert!(out.passed(), "one-pass total must hold everywhere: {out:?}");
}

/// Successive snapshots are pointwise monotone: counters only grow, so
/// a later pass can never observe a smaller per-kind value.
#[test]
fn stats_snapshots_are_pointwise_monotone() {
    #[derive(Clone)]
    struct Mono {
        counts: [MockAtomicU64; 2],
        first: [u64; 2],
        second: [u64; 2],
        first_done: bool,
        second_done: bool,
    }
    let initial = Mono {
        counts: [MockAtomicU64::new(V_C0, 0), MockAtomicU64::new(V_C1, 0)],
        first: [0; 2],
        second: [0; 2],
        first_done: false,
        second_done: false,
    };
    let recorder = MockThread::new("recorder")
        .step_rw("record-kind0", &[], &[V_C0], |s: &mut Mono| {
            s.counts[0].fetch_add(1);
        })
        .step_rw("record-kind1", &[], &[V_C1], |s: &mut Mono| {
            s.counts[1].fetch_add(1);
        });
    let reader = MockThread::new("scraper")
        .step_rw("first0", &[V_C0], &[V_READER], |s: &mut Mono| {
            s.first[0] = s.counts[0].load();
        })
        .step_rw("first1", &[V_C1], &[V_READER], |s: &mut Mono| {
            s.first[1] = s.counts[1].load();
            s.first_done = true;
        })
        .step_rw("second0", &[V_C0], &[V_READER], |s: &mut Mono| {
            s.second[0] = s.counts[0].load();
        })
        .step_rw("second1", &[V_C1], &[V_READER], |s: &mut Mono| {
            s.second[1] = s.counts[1].load();
            s.second_done = true;
        });
    let out = explore(
        &initial,
        &[recorder, reader],
        |s| {
            if s.first_done && s.second_done {
                for k in 0..2 {
                    if s.second[k] < s.first[k] {
                        return Err(format!("kind {k} went backwards"));
                    }
                }
            }
            Ok(())
        },
        &[V_READER],
        Config::default(),
    );
    assert!(out.passed(), "snapshot monotonicity must hold: {out:?}");
}

// ---------------------------------------------------------------------------
// SeriesRing: sampler vs scraper handoff (crates/obs/src/series.rs,
// crates/net/src/daemon.rs: one OP_SERIES probe's sample push against
// another probe's copy)
// ---------------------------------------------------------------------------

const V_RING_MUTEX: VarId = 10;
const V_RING_T: VarId = 11;
const V_RING_CTR: VarId = 12;
const V_RING_SEEN: VarId = 13;

/// A sample point is written field-by-field (`t_ms`, then the counter
/// derived from it). The model invariant is the point's internal
/// consistency: an observed counter must match its observed `t_ms`.
#[derive(Clone)]
struct PointModel {
    ring: MockMutex,
    t_ms: u64,
    counter: u64,
    seen: Option<(u64, u64)>,
}

impl PointModel {
    fn new() -> Self {
        Self {
            ring: MockMutex::new(V_RING_MUTEX),
            t_ms: 0,
            counter: 0,
            seen: None,
        }
    }

    fn check(&self) -> Result<(), String> {
        if self.ring.poisoned() {
            return Err("ring mutex protocol violated".to_string());
        }
        if let Some((t, c)) = self.seen {
            if c != 2 * t {
                return Err(format!("torn point observed: t_ms={t} counter={c}"));
            }
        }
        Ok(())
    }
}

/// The real arrangement: both sides serialize on the ring mutex, so the
/// two-field write is atomic with respect to the scraper.
#[test]
fn series_ring_locked_handoff_never_tears() {
    let sampler = MockThread::new("sampler")
        .guarded(
            "lock",
            &[V_RING_MUTEX],
            &[V_RING_MUTEX],
            |s: &PointModel| s.ring.is_free(),
            |s: &mut PointModel| s.ring.acquire(0),
        )
        .step_rw("write-t", &[], &[V_RING_T], |s: &mut PointModel| {
            s.t_ms = 10
        })
        .step_rw(
            "write-counter",
            &[V_RING_T],
            &[V_RING_CTR],
            |s: &mut PointModel| {
                s.counter = 2 * s.t_ms;
            },
        )
        .step_rw("unlock", &[], &[V_RING_MUTEX], |s: &mut PointModel| {
            s.ring.release(0)
        });
    let scraper = MockThread::new("scraper")
        .guarded(
            "lock",
            &[V_RING_MUTEX],
            &[V_RING_MUTEX],
            |s: &PointModel| s.ring.is_free(),
            |s: &mut PointModel| s.ring.acquire(1),
        )
        .step_rw(
            "read-point",
            &[V_RING_T, V_RING_CTR],
            &[V_RING_SEEN],
            |s: &mut PointModel| s.seen = Some((s.t_ms, s.counter)),
        )
        .step_rw("unlock", &[], &[V_RING_MUTEX], |s: &mut PointModel| {
            s.ring.release(1)
        });
    let out = explore(
        &PointModel::new(),
        &[sampler, scraper],
        PointModel::check,
        &[V_RING_MUTEX, V_RING_SEEN],
        Config::default(),
    );
    assert!(out.passed(), "locked handoff must never tear: {out:?}");
}

/// Seeded violation: drop the mutex and the scraper can land between the
/// two field writes, observing a torn point — the checker must find it.
#[test]
fn series_ring_unlocked_handoff_is_caught() {
    let sampler = MockThread::new("sampler")
        .step_rw("write-t", &[], &[V_RING_T], |s: &mut PointModel| {
            s.t_ms = 10
        })
        .step_rw(
            "write-counter",
            &[V_RING_T],
            &[V_RING_CTR],
            |s: &mut PointModel| {
                s.counter = 2 * s.t_ms;
            },
        );
    let scraper = MockThread::new("scraper").step_rw(
        "read-point",
        &[V_RING_T, V_RING_CTR],
        &[V_RING_SEEN],
        |s: &mut PointModel| s.seen = Some((s.t_ms, s.counter)),
    );
    let out = explore(
        &PointModel::new(),
        &[sampler, scraper],
        PointModel::check,
        &[V_RING_MUTEX, V_RING_SEEN],
        Config::default(),
    );
    match out {
        Outcome::InvariantViolation { schedule, .. } => {
            assert_eq!(
                schedule.last().map(String::as_str),
                Some("scraper:read-point"),
                "the tear is observed by the scraper: {schedule:?}"
            );
        }
        other => unreachable!("unlocked handoff must be caught, got {other:?}"),
    }
}

/// Bounded-ring eviction under the lock: capacity and ordering hold in
/// every interleaving of a pushing sampler and a copying scraper.
#[test]
fn series_ring_eviction_keeps_bound_and_order() {
    const CAP: usize = 2;
    #[derive(Clone)]
    struct RingModel {
        m: MockMutex,
        ring: Vec<u64>,
        seen: Option<Vec<u64>>,
    }
    fn well_formed(points: &[u64]) -> Result<(), String> {
        if points.len() > CAP {
            return Err(format!("ring over capacity: {points:?}"));
        }
        if points.windows(2).any(|w| w[0] >= w[1]) {
            return Err(format!("ring out of order: {points:?}"));
        }
        Ok(())
    }
    let initial = RingModel {
        m: MockMutex::new(V_RING_MUTEX),
        ring: Vec::new(),
        seen: None,
    };
    let mut sampler = MockThread::new("sampler");
    for t in [10u64, 20, 30] {
        sampler = sampler
            .guarded(
                "lock",
                &[V_RING_MUTEX],
                &[V_RING_MUTEX],
                |s: &RingModel| s.m.is_free(),
                |s: &mut RingModel| s.m.acquire(0),
            )
            .step_rw("evict", &[V_RING_T], &[V_RING_T], |s: &mut RingModel| {
                if s.ring.len() == CAP {
                    s.ring.remove(0);
                }
            })
            .step_rw(
                "push",
                &[V_RING_T],
                &[V_RING_T],
                move |s: &mut RingModel| {
                    s.ring.push(t);
                },
            )
            .step_rw("unlock", &[], &[V_RING_MUTEX], |s: &mut RingModel| {
                s.m.release(0)
            });
    }
    let scraper = MockThread::new("scraper")
        .guarded(
            "lock",
            &[V_RING_MUTEX],
            &[V_RING_MUTEX],
            |s: &RingModel| s.m.is_free(),
            |s: &mut RingModel| s.m.acquire(1),
        )
        .step_rw("copy", &[V_RING_T], &[V_RING_SEEN], |s: &mut RingModel| {
            s.seen = Some(s.ring.clone());
        })
        .step_rw("unlock", &[], &[V_RING_MUTEX], |s: &mut RingModel| {
            s.m.release(1)
        });
    let out = explore(
        &initial,
        &[sampler, scraper],
        |s| {
            if s.m.poisoned() {
                return Err("ring mutex protocol violated".to_string());
            }
            well_formed(&s.ring)?;
            if let Some(seen) = &s.seen {
                well_formed(seen)?;
            }
            Ok(())
        },
        &[V_RING_MUTEX, V_RING_T, V_RING_SEEN],
        Config::default(),
    );
    assert!(out.passed(), "eviction bound/order must hold: {out:?}");
}

// ---------------------------------------------------------------------------
// PeerHealth quarantine backoff (crates/net/src/daemon.rs)
// ---------------------------------------------------------------------------

const V_Q_MUTEX: VarId = 20;
const V_Q_STATE: VarId = 21;

const Q_BASE_US: u64 = 250_000;
const Q_CAP_US: u64 = 1_000_000;
const Q_AFTER: u32 = 1;

#[derive(Clone)]
struct QuarModel {
    m: MockMutex,
    failures: u32,
    quarantines: u32,
    until_us: u64,
    last_backoff_us: u64,
    done: bool,
}

impl QuarModel {
    fn new() -> Self {
        Self {
            m: MockMutex::new(V_Q_MUTEX),
            failures: 0,
            quarantines: 0,
            until_us: 0,
            last_backoff_us: 0,
            done: false,
        }
    }

    /// Mirrors `CacheDaemon::note_peer_failure` under the health lock.
    fn record_failure(&mut self) {
        self.failures = self.failures.saturating_add(1);
        if self.failures >= Q_AFTER {
            let backoff = (Q_BASE_US << self.quarantines.min(16)).min(Q_CAP_US);
            self.until_us = backoff; // clock pinned at 0 in the model
            self.last_backoff_us = backoff;
            self.quarantines = self.quarantines.saturating_add(1);
        }
    }

    /// Mirrors `CacheDaemon::note_peer_ok` (full rehabilitation).
    fn record_ok(&mut self) {
        self.failures = 0;
        self.quarantines = 0;
        self.until_us = 0;
    }

    fn check(&self) -> Result<(), String> {
        if self.m.poisoned() {
            return Err("health mutex protocol violated".to_string());
        }
        if self.last_backoff_us > Q_CAP_US {
            return Err(format!("backoff over cap: {}", self.last_backoff_us));
        }
        if self.quarantines > 0 {
            let expect = (Q_BASE_US << (self.quarantines - 1).min(16)).min(Q_CAP_US);
            if self.last_backoff_us != expect {
                return Err(format!(
                    "backoff {} != expected {} at quarantine #{}",
                    self.last_backoff_us, expect, self.quarantines
                ));
            }
        }
        if self.until_us > 0 && self.until_us != self.last_backoff_us {
            return Err("until_us diverged from the backoff that set it".to_string());
        }
        Ok(())
    }
}

fn quar_cycle(
    thread: MockThread<QuarModel>,
    tid: usize,
    name: &'static str,
    body: impl Fn(&mut QuarModel) + 'static,
) -> MockThread<QuarModel> {
    thread
        .guarded(
            "lock",
            &[V_Q_MUTEX],
            &[V_Q_MUTEX],
            |s: &QuarModel| s.m.is_free(),
            move |s: &mut QuarModel| s.m.acquire(tid),
        )
        .step_rw(name, &[V_Q_STATE], &[V_Q_STATE], body)
        .step_rw("unlock", &[], &[V_Q_MUTEX], move |s: &mut QuarModel| {
            s.m.release(tid)
        })
}

/// Two failure reporters, one rehabilitator and one prober race on the
/// health map: the backoff formula and the mutex protocol hold in every
/// schedule.
#[test]
fn quarantine_transitions_hold_under_races() {
    let mut failer = MockThread::new("failer");
    for _ in 0..2 {
        failer = quar_cycle(failer, 0, "record-failure", QuarModel::record_failure);
    }
    let rehab = quar_cycle(
        MockThread::new("rehab"),
        1,
        "record-ok",
        QuarModel::record_ok,
    );
    let prober = quar_cycle(MockThread::new("prober"), 2, "probe", |s| {
        // `is_quarantined` is a pure read under the lock.
        let _ = s.until_us > 0;
    });
    let out = explore(
        &QuarModel::new(),
        &[failer, rehab, prober],
        QuarModel::check,
        &[V_Q_MUTEX, V_Q_STATE],
        Config::default(),
    );
    assert!(out.passed(), "quarantine invariants must hold: {out:?}");
}

/// Repeated failures double the backoff until the cap and never past it.
#[test]
fn quarantine_backoff_doubles_to_cap() {
    let mut failer = MockThread::new("failer");
    for _ in 0..4 {
        failer = quar_cycle(failer, 0, "record-failure", QuarModel::record_failure);
    }
    failer = failer.step_rw("done", &[], &[V_Q_STATE], |s: &mut QuarModel| s.done = true);
    let out = explore(
        &QuarModel::new(),
        &[failer],
        |s| {
            s.check()?;
            if s.done && s.last_backoff_us != Q_CAP_US {
                return Err(format!(
                    "4 quarantines should reach the cap, got {}",
                    s.last_backoff_us
                ));
            }
            Ok(())
        },
        &[V_Q_MUTEX, V_Q_STATE],
        Config::default(),
    );
    assert!(out.passed(), "backoff ladder must reach the cap: {out:?}");
}

/// Seeded violation: skip the `is_free` guard on one path and the mutex
/// poisons — the model cannot silently tolerate a protocol break.
#[test]
fn quarantine_unguarded_acquire_is_caught() {
    let failer = MockThread::new("failer")
        .step_rw(
            "lock-unguarded",
            &[V_Q_MUTEX],
            &[V_Q_MUTEX],
            |s: &mut QuarModel| {
                s.m.acquire(0);
            },
        )
        .step_rw(
            "record-failure",
            &[V_Q_STATE],
            &[V_Q_STATE],
            QuarModel::record_failure,
        )
        .step_rw("unlock", &[], &[V_Q_MUTEX], |s: &mut QuarModel| {
            s.m.release(0)
        });
    let prober = quar_cycle(MockThread::new("prober"), 1, "probe", |_| {});
    let out = explore(
        &QuarModel::new(),
        &[failer, prober],
        QuarModel::check,
        &[V_Q_MUTEX, V_Q_STATE],
        Config::default(),
    );
    assert!(
        matches!(out, Outcome::InvariantViolation { .. }),
        "unguarded acquire must poison and be caught: {out:?}"
    );
}

// ---------------------------------------------------------------------------
// PR 5 regression: holding a shared sink's lock across a shutdown that
// joins emitting threads (crates/obs/src/sink.rs SinkHandle::from_arc)
// ---------------------------------------------------------------------------

const V_SINK_MUTEX: VarId = 30;
const V_WORKER_DONE: VarId = 31;
const V_EMITTED: VarId = 32;
const V_SUMMARY: VarId = 33;

#[derive(Clone)]
struct ShutdownModel {
    sink: MockMutex,
    worker_done: bool,
    emitted: u64,
    summary: Option<u64>,
}

impl ShutdownModel {
    fn new() -> Self {
        Self {
            sink: MockMutex::new(V_SINK_MUTEX),
            worker_done: false,
            emitted: 0,
            summary: None,
        }
    }

    fn check(&self) -> Result<(), String> {
        if self.sink.poisoned() {
            return Err("sink mutex protocol violated".to_string());
        }
        Ok(())
    }
}

/// The worker loop: emit one event under the sink lock, then exit
/// (its final step is the `join` handshake flag).
fn emitting_worker() -> MockThread<ShutdownModel> {
    MockThread::new("worker")
        .guarded(
            "lock-sink",
            &[V_SINK_MUTEX],
            &[V_SINK_MUTEX],
            |s: &ShutdownModel| s.sink.is_free(),
            |s: &mut ShutdownModel| s.sink.acquire(0),
        )
        .step_rw(
            "emit",
            &[V_EMITTED],
            &[V_EMITTED],
            |s: &mut ShutdownModel| {
                s.emitted += 1;
            },
        )
        .step_rw(
            "unlock-sink",
            &[],
            &[V_SINK_MUTEX],
            |s: &mut ShutdownModel| {
                s.sink.release(0);
            },
        )
        .step_rw("exit", &[], &[V_WORKER_DONE], |s: &mut ShutdownModel| {
            s.worker_done = true;
        })
}

/// The PR 5 bug, as a model: the harness takes the sink lock to read a
/// summary and — still holding it — joins the worker. If the worker has
/// not yet emitted, it blocks on the sink lock forever while the harness
/// blocks on the join: a deadlock the scheduler must find.
#[test]
fn pr5_sink_lock_across_join_deadlocks() {
    let harness = MockThread::new("harness")
        .guarded(
            "lock-sink",
            &[V_SINK_MUTEX],
            &[V_SINK_MUTEX],
            |s: &ShutdownModel| s.sink.is_free(),
            |s: &mut ShutdownModel| s.sink.acquire(1),
        )
        .step_rw(
            "read-summary",
            &[V_EMITTED],
            &[V_SUMMARY],
            |s: &mut ShutdownModel| {
                s.summary = Some(s.emitted);
            },
        )
        .guarded(
            "join-worker",
            &[V_WORKER_DONE],
            &[],
            |s: &ShutdownModel| s.worker_done,
            |_| {},
        )
        .step_rw(
            "unlock-sink",
            &[],
            &[V_SINK_MUTEX],
            |s: &mut ShutdownModel| {
                s.sink.release(1);
            },
        );
    let out = explore(
        &ShutdownModel::new(),
        &[emitting_worker(), harness],
        ShutdownModel::check,
        &[V_SINK_MUTEX],
        Config::default(),
    );
    match out {
        Outcome::Deadlock { blocked, schedule } => {
            assert!(
                blocked.contains(&"worker".to_string()) && blocked.contains(&"harness".to_string()),
                "both sides wedge: {blocked:?}"
            );
            assert!(
                schedule.iter().any(|s| s == "harness:lock-sink"),
                "the deadlock requires the harness holding the sink: {schedule:?}"
            );
        }
        other => unreachable!("the PR 5 class must deadlock in some schedule, got {other:?}"),
    }
}

/// The fix: read the summary, release the sink lock, *then* join. No
/// interleaving deadlocks or breaks the mutex protocol.
#[test]
fn pr5_release_before_join_is_clean() {
    let harness = MockThread::new("harness")
        .guarded(
            "lock-sink",
            &[V_SINK_MUTEX],
            &[V_SINK_MUTEX],
            |s: &ShutdownModel| s.sink.is_free(),
            |s: &mut ShutdownModel| s.sink.acquire(1),
        )
        .step_rw(
            "read-summary",
            &[V_EMITTED],
            &[V_SUMMARY],
            |s: &mut ShutdownModel| {
                s.summary = Some(s.emitted);
            },
        )
        .step_rw(
            "unlock-sink",
            &[],
            &[V_SINK_MUTEX],
            |s: &mut ShutdownModel| {
                s.sink.release(1);
            },
        )
        .guarded(
            "join-worker",
            &[V_WORKER_DONE],
            &[],
            |s: &ShutdownModel| s.worker_done,
            |_| {},
        );
    let out = explore(
        &ShutdownModel::new(),
        &[emitting_worker(), harness],
        |s| {
            s.check()?;
            if let Some(summary) = s.summary {
                if summary > 1 {
                    return Err(format!("impossible summary {summary}"));
                }
            }
            Ok(())
        },
        &[V_SINK_MUTEX, V_EMITTED, V_SUMMARY],
        Config::default(),
    );
    assert!(
        out.passed(),
        "release-before-join must be deadlock-free: {out:?}"
    );
}

// ---------------------------------------------------------------------------
// The DES's sink offload: the simulation thread ships batches to a worker
// over a depth-bounded queue, then closes it; the scope joins the worker
// (crates/obs/src/sink.rs SinkOffload, crates/sim/src/des.rs run_des_inner)
// ---------------------------------------------------------------------------

const V_TAP_MUTEX: VarId = 70;
const V_OFFLOAD_SINK: VarId = 71;
const V_QUEUE: VarId = 72;
const V_CLOSED: VarId = 73;
const V_SPARE: VarId = 74;
const V_DELIVERED: VarId = 75;
const V_IN_HAND: VarId = 76;
const V_FILLING: VarId = 77;
const V_OFFLOAD_DONE: VarId = 78;
const V_RETURNED: VarId = 79;
const V_JOINED: VarId = 80;

/// Full batches the producer ships before its final partial one.
const FULL_BATCHES: u64 = 2;
/// Queue depth, as `OFFLOAD_DEPTH`.
const DEPTH: usize = 1;
/// Buffers in circulation: one filling, `DEPTH` queued, one delivering.
const BUFFERS: u64 = DEPTH as u64 + 2;

#[derive(Clone)]
struct OffloadModel {
    tap: MockMutex,
    sink: MockMutex,
    /// Batch ids queued for the worker, oldest first.
    queue: Vec<u64>,
    closed: bool,
    /// Recycled buffers waiting for the producer.
    spare: u64,
    /// Whether the producer holds a buffer to fill.
    filling: bool,
    /// The batch the worker is delivering.
    in_hand: Option<u64>,
    /// Batch ids the sink received, in order.
    delivered: Vec<u64>,
    /// The producer found no spare buffer after a successful send.
    starved: bool,
    worker_done: bool,
    /// The producer's closure returned, so the scope may join.
    returned: bool,
    joined: bool,
}

impl OffloadModel {
    fn new() -> Self {
        Self {
            tap: MockMutex::new(V_TAP_MUTEX),
            sink: MockMutex::new(V_OFFLOAD_SINK),
            queue: Vec::new(),
            closed: false,
            spare: BUFFERS - 1,
            filling: true,
            in_hand: None,
            delivered: Vec::new(),
            starved: false,
            worker_done: false,
            returned: false,
            joined: false,
        }
    }

    fn check(&self) -> Result<(), String> {
        if self.tap.poisoned() || self.sink.poisoned() {
            return Err("mutex protocol violated".to_string());
        }
        if self.starved {
            return Err("no spare buffer after a successful send".to_string());
        }
        if self.queue.len() > DEPTH {
            return Err(format!("queue holds {} batches", self.queue.len()));
        }
        let held = u64::from(self.filling)
            + self.queue.len() as u64
            + u64::from(self.in_hand.is_some())
            + self.spare;
        if held != BUFFERS {
            return Err(format!("{held} buffers in circulation, not {BUFFERS}"));
        }
        let expected: Vec<u64> = (0..=FULL_BATCHES).collect();
        if !expected.starts_with(&self.delivered) {
            return Err(format!(
                "delivered {:?}: not once, in order",
                self.delivered
            ));
        }
        if self.joined && self.delivered != expected {
            return Err(format!("joined after delivering only {:?}", self.delivered));
        }
        Ok(())
    }
}

/// `SinkOffload::ship` for batch `id`: a send that blocks while the queue
/// is full, then a recycled buffer to fill next.
fn ship(thread: MockThread<OffloadModel>, id: u64) -> MockThread<OffloadModel> {
    thread
        .guarded(
            "send",
            &[V_QUEUE, V_FILLING],
            &[V_QUEUE, V_FILLING],
            |s: &OffloadModel| s.queue.len() < DEPTH,
            move |s: &mut OffloadModel| {
                s.queue.push(id);
                s.filling = false;
            },
        )
        .step_rw(
            "take-spare",
            &[V_SPARE],
            &[V_SPARE, V_FILLING],
            |s: &mut OffloadModel| {
                if s.spare == 0 {
                    s.starved = true;
                } else {
                    s.spare -= 1;
                    s.filling = true;
                }
            },
        )
}

/// The simulation thread: each full batch is shipped from inside the
/// tap guard, as `SeriesTap::emit` does once its `HealthFold` has folded
/// the event into its node's one tally (the node's, else the rollup's).
fn offload_producer() -> MockThread<OffloadModel> {
    let mut producer = MockThread::new("producer");
    for id in 0..FULL_BATCHES {
        producer = producer.guarded(
            "lock-tap",
            &[V_TAP_MUTEX],
            &[V_TAP_MUTEX],
            |s: &OffloadModel| s.tap.is_free(),
            |s: &mut OffloadModel| s.tap.acquire(0),
        );
        producer = ship(producer, id).step_rw(
            "unlock-tap",
            &[],
            &[V_TAP_MUTEX],
            |s: &mut OffloadModel| s.tap.release(0),
        );
    }
    producer
}

/// The worker: receive, deliver under the sink lock, recycle; exit once
/// the queue is empty and closed.
fn offload_worker() -> MockThread<OffloadModel> {
    let mut worker = MockThread::new("worker");
    for _ in 0..=FULL_BATCHES {
        worker = worker
            .guarded(
                "recv",
                &[V_QUEUE, V_IN_HAND],
                &[V_QUEUE, V_IN_HAND],
                |s: &OffloadModel| !s.queue.is_empty(),
                |s: &mut OffloadModel| s.in_hand = Some(s.queue.remove(0)),
            )
            .guarded(
                "lock-sink",
                &[V_OFFLOAD_SINK],
                &[V_OFFLOAD_SINK],
                |s: &OffloadModel| s.sink.is_free(),
                |s: &mut OffloadModel| s.sink.acquire(1),
            )
            .step_rw(
                "deliver",
                &[V_IN_HAND, V_DELIVERED],
                &[V_DELIVERED],
                |s: &mut OffloadModel| s.delivered.extend(s.in_hand),
            )
            .step_rw(
                "unlock-sink",
                &[],
                &[V_OFFLOAD_SINK],
                |s: &mut OffloadModel| s.sink.release(1),
            )
            .step_rw(
                "recycle",
                &[V_IN_HAND, V_SPARE],
                &[V_IN_HAND, V_SPARE],
                |s: &mut OffloadModel| {
                    s.in_hand = None;
                    s.spare += 1;
                },
            );
    }
    worker.guarded(
        "recv-closed",
        &[V_QUEUE, V_CLOSED],
        &[V_OFFLOAD_DONE],
        |s: &OffloadModel| s.queue.is_empty() && s.closed,
        |s: &mut OffloadModel| s.worker_done = true,
    )
}

/// `thread::scope`'s join, which runs once the producer's closure has
/// returned.
fn offload_joiner() -> MockThread<OffloadModel> {
    MockThread::new("joiner")
        .guarded(
            "await-return",
            &[V_RETURNED],
            &[],
            |s: &OffloadModel| s.returned,
            |_| {},
        )
        .guarded(
            "join",
            &[V_OFFLOAD_DONE],
            &[V_JOINED],
            |s: &OffloadModel| s.worker_done,
            |s: &mut OffloadModel| s.joined = true,
        )
}

fn close(thread: MockThread<OffloadModel>) -> MockThread<OffloadModel> {
    thread.step_rw("close", &[], &[V_CLOSED], |s: &mut OffloadModel| {
        s.closed = true;
    })
}

fn return_from_scope(thread: MockThread<OffloadModel>) -> MockThread<OffloadModel> {
    thread.step_rw("return", &[], &[V_RETURNED], |s: &mut OffloadModel| {
        s.returned = true;
    })
}

const OFFLOAD_READS: [VarId; 8] = [
    V_TAP_MUTEX,
    V_OFFLOAD_SINK,
    V_QUEUE,
    V_SPARE,
    V_FILLING,
    V_IN_HAND,
    V_DELIVERED,
    V_JOINED,
];

/// The real order: the run drops the offload — shipping the partial
/// batch and closing the queue — outside the tap guard and before its
/// closure returns to the scope. Every batch reaches the sink once, in
/// order; a spare buffer is always waiting after a send; nothing
/// deadlocks.
#[test]
fn sink_offload_delivers_every_batch_before_the_join() {
    let producer = return_from_scope(close(ship(offload_producer(), FULL_BATCHES)));
    let out = explore(
        &OffloadModel::new(),
        &[producer, offload_worker(), offload_joiner()],
        OffloadModel::check,
        &OFFLOAD_READS,
        Config::default(),
    );
    assert!(out.passed(), "the offload handoff must be clean: {out:?}");
}

/// Seeded violation: the offload outlives the scope, so the join comes
/// before the close. The worker waits for the close, the close for the
/// join, the join for the worker — the scheduler must report it.
#[test]
fn sink_offload_join_before_close_deadlocks() {
    let producer = return_from_scope(ship(offload_producer(), FULL_BATCHES));
    let producer = close(producer.guarded(
        "await-join",
        &[V_JOINED],
        &[],
        |s: &OffloadModel| s.joined,
        |_| {},
    ));
    let out = explore(
        &OffloadModel::new(),
        &[producer, offload_worker(), offload_joiner()],
        OffloadModel::check,
        &OFFLOAD_READS,
        Config::default(),
    );
    match out {
        Outcome::Deadlock { blocked, .. } => {
            for name in ["producer", "worker", "joiner"] {
                assert!(
                    blocked.contains(&name.to_string()),
                    "{name} wedges: {blocked:?}"
                );
            }
        }
        other => unreachable!("joining before the close must deadlock, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// PR 8: sharded arena store — per-shard locking in ConcurrentCache
// (crates/core/src/concurrent.rs lock_shard / each_shard)
// ---------------------------------------------------------------------------

const V_SHARD0_MUTEX: VarId = 40;
const V_SHARD1_MUTEX: VarId = 41;
const V_SHARD0_DATA: VarId = 42;
const V_SHARD1_DATA: VarId = 43;
const V_SNAP: VarId = 44;

/// Two shards of a `ConcurrentCache`: each shard is a lock plus its
/// insert count; the snapshot pass copies shard 0 then shard 1, taking
/// one lock at a time in index order — exactly what the aggregations
/// `ConcurrentCache::{len, used, stats}` do when they sum one per-shard
/// reading after another.
#[derive(Clone)]
struct ShardModel {
    locks: [MockMutex; 2],
    applied: [u64; 2],
    snap: [Option<u64>; 2],
}

impl ShardModel {
    fn new() -> Self {
        Self {
            locks: [
                MockMutex::new(V_SHARD0_MUTEX),
                MockMutex::new(V_SHARD1_MUTEX),
            ],
            applied: [0; 2],
            snap: [None; 2],
        }
    }

    fn check(&self) -> Result<(), String> {
        for (i, lock) in self.locks.iter().enumerate() {
            if lock.poisoned() {
                return Err(format!("shard {i} mutex protocol violated"));
            }
        }
        Ok(())
    }
}

/// A requester pinned to one shard: lock it, apply an insert, unlock.
/// Never touches the other shard's lock — the property the doc-hash
/// shard assignment guarantees for every request path.
fn shard_requester(tid: usize, shard: usize, cycles: usize) -> MockThread<ShardModel> {
    let mutex_var = if shard == 0 {
        V_SHARD0_MUTEX
    } else {
        V_SHARD1_MUTEX
    };
    let data_var = if shard == 0 {
        V_SHARD0_DATA
    } else {
        V_SHARD1_DATA
    };
    let name: &'static str = if shard == 0 { "req-s0" } else { "req-s1" };
    let mut t = MockThread::new(name);
    for _ in 0..cycles {
        t = t
            .guarded(
                "lock",
                &[mutex_var],
                &[mutex_var],
                move |s: &ShardModel| s.locks[shard].is_free(),
                move |s: &mut ShardModel| s.locks[shard].acquire(tid),
            )
            .step_rw(
                "insert",
                &[data_var],
                &[data_var],
                move |s: &mut ShardModel| {
                    s.applied[shard] += 1;
                },
            )
            .step_rw("unlock", &[], &[mutex_var], move |s: &mut ShardModel| {
                s.locks[shard].release(tid);
            });
    }
    t
}

/// The aggregation pass: shard 0 under its lock, release, then shard 1
/// under its lock — never two locks at once.
fn shard_snapshotter(tid: usize) -> MockThread<ShardModel> {
    MockThread::new("snapshot")
        .guarded(
            "lock-s0",
            &[V_SHARD0_MUTEX],
            &[V_SHARD0_MUTEX],
            |s: &ShardModel| s.locks[0].is_free(),
            move |s: &mut ShardModel| s.locks[0].acquire(tid),
        )
        .step_rw(
            "copy-s0",
            &[V_SHARD0_DATA],
            &[V_SNAP],
            |s: &mut ShardModel| {
                s.snap[0] = Some(s.applied[0]);
            },
        )
        .step_rw(
            "unlock-s0",
            &[],
            &[V_SHARD0_MUTEX],
            move |s: &mut ShardModel| {
                s.locks[0].release(tid);
            },
        )
        .guarded(
            "lock-s1",
            &[V_SHARD1_MUTEX],
            &[V_SHARD1_MUTEX],
            |s: &ShardModel| s.locks[1].is_free(),
            move |s: &mut ShardModel| s.locks[1].acquire(tid),
        )
        .step_rw(
            "copy-s1",
            &[V_SHARD1_DATA],
            &[V_SNAP],
            |s: &mut ShardModel| {
                s.snap[1] = Some(s.applied[1]);
            },
        )
        .step_rw(
            "unlock-s1",
            &[],
            &[V_SHARD1_MUTEX],
            move |s: &mut ShardModel| {
                s.locks[1].release(tid);
            },
        )
}

/// Two requesters on distinct shards race a full snapshot pass: no
/// schedule deadlocks, no lock protocol break, and every per-shard copy
/// is a value that shard actually held (0..=cycles, monotone under its
/// own lock). This is the deadlock-freedom argument for the shard-lock
/// scheme: every thread holds at most one shard lock at any moment, so
/// no hold-and-wait cycle can form.
#[test]
fn shard_locks_requesters_vs_snapshot_never_deadlock() {
    const CYCLES: usize = 2;
    let out = explore(
        &ShardModel::new(),
        &[
            shard_requester(0, 0, CYCLES),
            shard_requester(1, 1, CYCLES),
            shard_snapshotter(2),
        ],
        |s| {
            s.check()?;
            for i in 0..2 {
                if let Some(v) = s.snap[i] {
                    if v > CYCLES as u64 {
                        return Err(format!("shard {i} snapshot {v} exceeds all inserts"));
                    }
                }
            }
            Ok(())
        },
        &[V_SHARD0_MUTEX, V_SHARD1_MUTEX, V_SNAP],
        Config::default(),
    );
    assert!(
        out.passed(),
        "one-lock-at-a-time snapshot must be deadlock-free: {out:?}"
    );
}

/// The aggregation contract is per-shard consistency, NOT a global cut — and
/// that weaker contract is the strongest one available: with a writer
/// inserting into shard 0 then shard 1 (in program order), some schedule
/// yields the combined snapshot (0, 1), a state the cache never globally
/// held. The checker must find that schedule; the DESIGN.md §2 wording
/// ("a sum of per-shard-consistent parts, not a global cut") documents
/// exactly this.
#[test]
fn shard_snapshot_is_not_a_global_cut_and_docs_say_so() {
    let writer = MockThread::new("writer")
        .guarded(
            "lock-s0",
            &[V_SHARD0_MUTEX],
            &[V_SHARD0_MUTEX],
            |s: &ShardModel| s.locks[0].is_free(),
            |s: &mut ShardModel| s.locks[0].acquire(0),
        )
        .step_rw(
            "insert-s0",
            &[V_SHARD0_DATA],
            &[V_SHARD0_DATA],
            |s: &mut ShardModel| {
                s.applied[0] += 1;
            },
        )
        .step_rw("unlock-s0", &[], &[V_SHARD0_MUTEX], |s: &mut ShardModel| {
            s.locks[0].release(0);
        })
        .guarded(
            "lock-s1",
            &[V_SHARD1_MUTEX],
            &[V_SHARD1_MUTEX],
            |s: &ShardModel| s.locks[1].is_free(),
            |s: &mut ShardModel| s.locks[1].acquire(0),
        )
        .step_rw(
            "insert-s1",
            &[V_SHARD1_DATA],
            &[V_SHARD1_DATA],
            |s: &mut ShardModel| {
                s.applied[1] += 1;
            },
        )
        .step_rw("unlock-s1", &[], &[V_SHARD1_MUTEX], |s: &mut ShardModel| {
            s.locks[1].release(0);
        });
    // The writer's global states, in order: (0,0) -> (1,0) -> (1,1).
    // Demanding the snapshot be one of those is demanding a global cut.
    let out = explore(
        &ShardModel::new(),
        &[writer, shard_snapshotter(1)],
        |s| {
            s.check()?;
            if let [Some(a), Some(b)] = s.snap {
                let is_global_cut = matches!((a, b), (0, 0) | (1, 0) | (1, 1));
                if !is_global_cut {
                    return Err(format!("snapshot ({a}, {b}) is not a global cut"));
                }
            }
            Ok(())
        },
        &[V_SHARD0_MUTEX, V_SHARD1_MUTEX, V_SNAP],
        Config::default(),
    );
    match out {
        Outcome::InvariantViolation { message, .. } => {
            assert!(
                message.contains("(0, 1)"),
                "the torn cut is shard0-early/shard1-late: {message}"
            );
        }
        other => unreachable!(
            "a per-shard snapshot cannot be a global cut; the checker must \
             find the (0, 1) schedule, got {other:?}"
        ),
    }
}

/// Seeded violation: break the one-lock-at-a-time discipline with two
/// threads taking both shard locks in opposite orders — the classic
/// hold-and-wait cycle the real aggregation paths avoid by construction.
/// The checker must report the deadlock.
#[test]
fn shard_lock_order_inversion_deadlocks_and_is_caught() {
    let forward = MockThread::new("fwd")
        .guarded(
            "lock-s0",
            &[V_SHARD0_MUTEX],
            &[V_SHARD0_MUTEX],
            |s: &ShardModel| s.locks[0].is_free(),
            |s: &mut ShardModel| s.locks[0].acquire(0),
        )
        .guarded(
            "lock-s1",
            &[V_SHARD1_MUTEX],
            &[V_SHARD1_MUTEX],
            |s: &ShardModel| s.locks[1].is_free(),
            |s: &mut ShardModel| s.locks[1].acquire(0),
        )
        .step_rw("unlock-s1", &[], &[V_SHARD1_MUTEX], |s: &mut ShardModel| {
            s.locks[1].release(0);
        })
        .step_rw("unlock-s0", &[], &[V_SHARD0_MUTEX], |s: &mut ShardModel| {
            s.locks[0].release(0);
        });
    let backward = MockThread::new("bwd")
        .guarded(
            "lock-s1",
            &[V_SHARD1_MUTEX],
            &[V_SHARD1_MUTEX],
            |s: &ShardModel| s.locks[1].is_free(),
            |s: &mut ShardModel| s.locks[1].acquire(1),
        )
        .guarded(
            "lock-s0",
            &[V_SHARD0_MUTEX],
            &[V_SHARD0_MUTEX],
            |s: &ShardModel| s.locks[0].is_free(),
            |s: &mut ShardModel| s.locks[0].acquire(1),
        )
        .step_rw("unlock-s0", &[], &[V_SHARD0_MUTEX], |s: &mut ShardModel| {
            s.locks[0].release(1);
        })
        .step_rw("unlock-s1", &[], &[V_SHARD1_MUTEX], |s: &mut ShardModel| {
            s.locks[1].release(1);
        });
    let out = explore(
        &ShardModel::new(),
        &[forward, backward],
        ShardModel::check,
        &[V_SHARD0_MUTEX, V_SHARD1_MUTEX],
        Config::default(),
    );
    match out {
        Outcome::Deadlock { blocked, .. } => {
            assert!(
                blocked.contains(&"fwd".to_string()) && blocked.contains(&"bwd".to_string()),
                "both inverted lockers wedge: {blocked:?}"
            );
        }
        other => unreachable!("lock-order inversion must deadlock somewhere, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Published eq. 5 age: shard writers publish the pooled age under the
// window-table lock, readers load it lock-free
// (crates/core/src/concurrent.rs insert / expiration_age)
// ---------------------------------------------------------------------------

const V_AGE_SHARD0_MUTEX: VarId = 90;
const V_AGE_SHARD1_MUTEX: VarId = 91;
const V_AGE_SHARD0: VarId = 92;
const V_AGE_SHARD1: VarId = 93;
const V_AGE_TABLE_MUTEX: VarId = 94;
const V_AGE_TABLE: VarId = 95;
const V_AGE_WORD: VarId = 96;
const V_AGE_READS: VarId = 97;
const V_AGE_FINISHED: VarId = 98;

/// The published word of an infinite age, as in the real cache.
const AGE_INFINITE: u64 = u64::MAX;

/// The window each shard's insert records: (sum of ages, count). The
/// pooled ages of the publication prefixes — ∞, 10, 40 and 25 — are
/// pairwise distinct, so a read names the prefix it saw.
const AGE_WINDOWS: [(u64, u64); 2] = [(10, 1), (40, 1)];

/// Paper eq. 5 over the union of `windows`, as a published word.
fn pooled_word(windows: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let (sum, len) = windows
        .into_iter()
        .fold((0, 0), |(s, l), (ws, wl)| (s + ws, l + wl));
    sum.checked_div(len).unwrap_or(AGE_INFINITE)
}

/// Two shards of a `ConcurrentCache`, the window table behind its own
/// leaf lock and the published age. Ghost state: the publications in
/// table order, and each read with the prefix of that log it matched.
#[derive(Clone)]
struct AgeModel {
    shard_locks: [MockMutex; 2],
    table_lock: MockMutex,
    shard_window: [(u64, u64); 2],
    table: [(u64, u64); 2],
    /// The word a writer computed under the table lock, not yet stored.
    pending: [u64; 2],
    age: MockAtomicU64,
    log: Vec<usize>,
    reads: Vec<(u64, Option<usize>)>,
    finished: usize,
}

impl AgeModel {
    fn new() -> Self {
        Self {
            shard_locks: [
                MockMutex::new(V_AGE_SHARD0_MUTEX),
                MockMutex::new(V_AGE_SHARD1_MUTEX),
            ],
            table_lock: MockMutex::new(V_AGE_TABLE_MUTEX),
            shard_window: [(0, 0); 2],
            table: [(0, 0); 2],
            pending: [AGE_INFINITE; 2],
            age: MockAtomicU64::new(V_AGE_WORD, AGE_INFINITE),
            log: Vec::new(),
            reads: Vec::new(),
            finished: 0,
        }
    }

    /// The pooled word after the first `k` publications.
    fn prefix_word(&self, k: usize) -> u64 {
        pooled_word(self.log[..k].iter().map(|&shard| AGE_WINDOWS[shard]))
    }

    /// Deadlock is the scheduler's verdict; this checks the rest: the
    /// lock protocol, every read a prefix of the publications completed
    /// when it was taken, later reads never seeing a shorter prefix, and
    /// once both writers are done the published age is the table's.
    fn check(&self) -> Result<(), String> {
        let locks = self.shard_locks.iter().chain([&self.table_lock]);
        if locks.into_iter().any(MockMutex::poisoned) {
            return Err("lock protocol violated".into());
        }
        let mut seen = 0;
        for &(word, prefix) in &self.reads {
            let Some(k) = prefix else {
                return Err(format!("read {word} is no prefix of {:?}", self.log));
            };
            if k < seen {
                return Err(format!("read {word} went back to prefix {k} from {seen}"));
            }
            seen = k;
        }
        if self.finished == 2 && self.age.load() != pooled_word(self.table) {
            return Err(format!(
                "published {} but the table pools to {}",
                self.age.load(),
                pooled_word(self.table)
            ));
        }
        Ok(())
    }
}

/// Where a writer stores the pooled word relative to the table unlock.
#[derive(Clone, Copy, PartialEq)]
enum Publish {
    /// Under the table lock, as `ConcurrentCache::insert` does.
    UnderTableLock,
    /// After releasing it: the seeded violation.
    AfterUnlock,
}

/// An insert on `shard` that records one eq. 5 sample: shard lock, the
/// sample, the table lock, the table entry and pooled word, the store.
fn age_writer(shard: usize, publish: Publish) -> MockThread<AgeModel> {
    let (mutex, data) = if shard == 0 {
        (V_AGE_SHARD0_MUTEX, V_AGE_SHARD0)
    } else {
        (V_AGE_SHARD1_MUTEX, V_AGE_SHARD1)
    };
    let store = move |s: &mut AgeModel| {
        let word = s.pending[shard];
        s.age.store(word);
    };
    let unlock_table = move |s: &mut AgeModel| s.table_lock.release(shard);
    let t = MockThread::new(if shard == 0 { "insert-s0" } else { "insert-s1" })
        .guarded(
            "lock-shard",
            &[mutex],
            &[mutex],
            move |s: &AgeModel| s.shard_locks[shard].is_free(),
            move |s: &mut AgeModel| s.shard_locks[shard].acquire(shard),
        )
        .step_rw("evict", &[data], &[data], move |s: &mut AgeModel| {
            s.shard_window[shard] = AGE_WINDOWS[shard];
        })
        .guarded(
            "lock-table",
            &[V_AGE_TABLE_MUTEX],
            &[V_AGE_TABLE_MUTEX],
            |s: &AgeModel| s.table_lock.is_free(),
            move |s: &mut AgeModel| s.table_lock.acquire(shard),
        )
        .step_rw(
            "set-window",
            &[data, V_AGE_TABLE],
            &[V_AGE_TABLE],
            move |s: &mut AgeModel| {
                s.table[shard] = s.shard_window[shard];
                s.log.push(shard);
                s.pending[shard] = pooled_word(s.table);
            },
        );
    let t = match publish {
        Publish::UnderTableLock => t.step_rw("store-age", &[], &[V_AGE_WORD], store).step_rw(
            "unlock-table",
            &[],
            &[V_AGE_TABLE_MUTEX],
            unlock_table,
        ),
        Publish::AfterUnlock => t
            .step_rw("unlock-table", &[], &[V_AGE_TABLE_MUTEX], unlock_table)
            .step_rw("store-age", &[], &[V_AGE_WORD], store),
    };
    t.step_rw(
        "unlock-shard",
        &[V_AGE_FINISHED],
        &[mutex, V_AGE_FINISHED],
        move |s: &mut AgeModel| {
            s.shard_locks[shard].release(shard);
            s.finished += 1;
        },
    )
}

/// `expiration_age`: two lock-free loads, each matched against the
/// publications completed at that instant.
fn age_reader() -> MockThread<AgeModel> {
    let load = |s: &mut AgeModel| {
        let word = s.age.load();
        let prefix = (0..=s.log.len()).rev().find(|&k| s.prefix_word(k) == word);
        s.reads.push((word, prefix));
    };
    MockThread::new("reader")
        .step_rw("load-age", &[V_AGE_WORD, V_AGE_TABLE], &[V_AGE_READS], load)
        .step_rw("load-age", &[V_AGE_WORD, V_AGE_TABLE], &[V_AGE_READS], load)
}

fn explore_published_age(publish: Publish) -> Outcome {
    explore(
        &AgeModel::new(),
        &[age_writer(0, publish), age_writer(1, publish), age_reader()],
        AgeModel::check,
        &[
            V_AGE_SHARD0_MUTEX,
            V_AGE_SHARD1_MUTEX,
            V_AGE_TABLE_MUTEX,
            V_AGE_TABLE,
            V_AGE_WORD,
            V_AGE_READS,
            V_AGE_FINISHED,
        ],
        Config::default(),
    )
}

/// Two shard writers publish while a reader loads the age twice: no
/// schedule deadlocks (the table is a leaf under each shard lock), every
/// read is the pooled age of a prefix of the completed publications,
/// reads never go back, and the last word is the whole table's.
#[test]
fn published_age_reads_a_prefix_of_the_publications() {
    let out = explore_published_age(Publish::UnderTableLock);
    assert!(out.passed(), "publishing under the table lock: {out:?}");
}

/// Seeded violation: store the word after releasing the table lock. A
/// writer that computed the pooled age of one publication can then
/// store it over the newer value of two — the checker must find it.
#[test]
fn published_age_stored_after_the_unlock_is_caught() {
    match explore_published_age(Publish::AfterUnlock) {
        Outcome::InvariantViolation { message, .. } => {
            assert!(
                message.contains("went back") || message.contains("table pools to"),
                "{message}"
            );
        }
        other => unreachable!("a stale store must be caught, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// ConnectionPool: checkout / checkin under `pool_idle`
// (crates/net/src/pool.rs)
// ---------------------------------------------------------------------------

const V_POOL_MUTEX: VarId = 50;
const V_POOL_IDLE: VarId = 51;
const V_POOL_OUT: VarId = 52;

/// The modeled per-host idle cap.
const POOL_CAP: usize = 1;

/// The pool's shared plane for one host: the parked-connection list
/// behind the `pool_idle` mutex, plus ghost state tracking which thread
/// holds which connection. `pool_idle` is a leaf lock in the real code —
/// connects, drops and joins all happen outside the guard — so the model
/// has no second lock to order against.
#[derive(Clone)]
struct PoolModel {
    m: MockMutex,
    /// Parked connection ids (one host).
    idle: Vec<u64>,
    /// (thread, conn) pairs currently checked out.
    held: Vec<(usize, u64)>,
    /// Connections dropped by the cap eviction.
    evicted: Vec<u64>,
    /// Per-thread checkout result: pool miss → fresh connect.
    miss: [bool; 2],
    /// Per-thread unlocked peek (racy variant only).
    peeked: [Option<u64>; 2],
    done: [bool; 2],
}

impl PoolModel {
    /// One connection already parked: both clients race to reuse it.
    fn new() -> Self {
        Self {
            m: MockMutex::new(V_POOL_MUTEX),
            idle: vec![7],
            held: Vec::new(),
            evicted: Vec::new(),
            miss: [false; 2],
            peeked: [None; 2],
            done: [false; 2],
        }
    }

    fn check(&self) -> Result<(), String> {
        if self.m.poisoned() {
            return Err("pool_idle mutex protocol violated".to_string());
        }
        if self.idle.len() > POOL_CAP {
            return Err(format!("idle list over cap: {}", self.idle.len()));
        }
        // A connection is in exactly one place: parked, held by one
        // thread, or evicted. A duplicate means the same socket was
        // handed to two requests at once.
        let mut ids: Vec<u64> = self
            .idle
            .iter()
            .copied()
            .chain(self.held.iter().map(|&(_, id)| id))
            .collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != n {
            return Err("one connection handed out or parked twice".to_string());
        }
        Ok(())
    }
}

/// The real checkout/checkin flow: pop and push+evict each atomic under
/// the `pool_idle` lock, the fresh connect outside it.
fn pool_client(tid: usize) -> MockThread<PoolModel> {
    let name = if tid == 0 { "client-a" } else { "client-b" };
    MockThread::new(name)
        .guarded(
            "lock-checkout",
            &[V_POOL_MUTEX],
            &[V_POOL_MUTEX],
            |s: &PoolModel| s.m.is_free(),
            move |s: &mut PoolModel| s.m.acquire(tid),
        )
        .step_rw(
            "checkout-pop",
            &[V_POOL_IDLE],
            &[V_POOL_IDLE, V_POOL_OUT],
            move |s: &mut PoolModel| {
                if let Some(id) = s.idle.pop() {
                    s.held.push((tid, id));
                } else {
                    s.miss[tid] = true;
                }
            },
        )
        .step_rw(
            "unlock-checkout",
            &[],
            &[V_POOL_MUTEX],
            move |s: &mut PoolModel| s.m.release(tid),
        )
        .step_rw(
            "connect-outside-lock",
            &[],
            &[V_POOL_OUT],
            move |s: &mut PoolModel| {
                if s.miss[tid] {
                    // Fresh sockets are unique by construction.
                    s.held.push((tid, 100 + tid as u64));
                }
            },
        )
        .guarded(
            "lock-checkin",
            &[V_POOL_MUTEX],
            &[V_POOL_MUTEX],
            |s: &PoolModel| s.m.is_free(),
            move |s: &mut PoolModel| s.m.acquire(tid),
        )
        .step_rw(
            "checkin-push-evict",
            &[V_POOL_IDLE, V_POOL_OUT],
            &[V_POOL_IDLE, V_POOL_OUT],
            move |s: &mut PoolModel| {
                let at = s
                    .held
                    .iter()
                    .position(|&(t, _)| t == tid)
                    .expect("thread checks in its own connection");
                let (_, id) = s.held.remove(at);
                s.idle.push(id);
                if s.idle.len() > POOL_CAP {
                    let evicted = s.idle.remove(0);
                    s.evicted.push(evicted);
                }
            },
        )
        .step_rw(
            "unlock-checkin",
            &[],
            &[V_POOL_MUTEX],
            move |s: &mut PoolModel| {
                s.m.release(tid);
                s.done[tid] = true;
            },
        )
}

/// Every interleaving of two clients holds the pool invariants: the cap
/// is never exceeded, and no parked connection is handed out twice.
#[test]
fn pool_checkout_checkin_holds_cap_and_uniqueness() {
    let out = explore(
        &PoolModel::new(),
        &[pool_client(0), pool_client(1)],
        |s| {
            s.check()?;
            if s.done[0] && s.done[1] {
                // Both checked in; the cap evicted the overflow.
                if s.idle.len() != POOL_CAP || !s.held.is_empty() {
                    return Err(format!(
                        "final state wrong: idle={:?} held={:?}",
                        s.idle, s.held
                    ));
                }
            }
            Ok(())
        },
        &[V_POOL_MUTEX, V_POOL_IDLE, V_POOL_OUT],
        Config::default(),
    );
    assert!(
        out.passed(),
        "pooled checkout must hold everywhere: {out:?}"
    );
}

/// Seeded violation: a checkout that peeks and takes the parked
/// connection without the lock. Two clients can both observe the same
/// head and both walk away with connection 7 — the checker must catch
/// the double handout.
#[test]
fn pool_unlocked_checkout_double_handout_is_caught() {
    let racy = |tid: usize| {
        let name = if tid == 0 { "racy-a" } else { "racy-b" };
        MockThread::new(name)
            .step_rw(
                "peek-unlocked",
                &[V_POOL_IDLE],
                &[V_POOL_OUT],
                move |s: &mut PoolModel| {
                    s.peeked[tid] = s.idle.first().copied();
                },
            )
            .step_rw(
                "take-unlocked",
                &[V_POOL_IDLE],
                &[V_POOL_IDLE, V_POOL_OUT],
                move |s: &mut PoolModel| {
                    if let Some(id) = s.peeked[tid] {
                        if s.idle.first() == Some(&id) {
                            s.idle.remove(0);
                        }
                        s.held.push((tid, id));
                    }
                },
            )
    };
    let out = explore(
        &PoolModel::new(),
        &[racy(0), racy(1)],
        PoolModel::check,
        &[V_POOL_MUTEX, V_POOL_IDLE, V_POOL_OUT],
        Config::default(),
    );
    assert!(
        matches!(out, Outcome::InvariantViolation { .. }),
        "the unlocked double handout must be caught: {out:?}"
    );
}

// ---------------------------------------------------------------------------
// ICP socket stash: take / return around a round (crates/net/src/daemon.rs
// start_icp_round / finish_icp_round)
// ---------------------------------------------------------------------------

const V_ICP_MUTEX: VarId = 60;
const V_ICP_IDLE: VarId = 61;
const V_ICP_OUT: VarId = 62;
const V_ICP_WIRE: VarId = 63;

/// The stash of one daemon shared by two requesters, plus ghost state:
/// which round holds which socket, and how many replies each socket is
/// still owed. A requester's one peer answers at some point of the
/// schedule — before the round's deadline step, or after it (a late
/// reply). Like `pool_idle`, the stash lock is a leaf: binds and socket
/// drops happen outside it.
#[derive(Clone)]
struct StashModel {
    m: MockMutex,
    /// Parked socket ids.
    idle: Vec<u64>,
    /// (thread, socket) pairs of the rounds in progress.
    held: Vec<(usize, u64)>,
    /// Per-thread: the stash was empty, bind a fresh socket.
    miss: [bool; 2],
    /// Per-thread: the socket the round's query went out on.
    queried: [Option<u64>; 2],
    /// Ghost: per socket id, replies owed but not yet read by a round.
    owed: Vec<(u64, u32)>,
    /// Ghost: per socket id, replies delivered and not yet read.
    queued: Vec<(u64, u32)>,
    /// Per-thread: the round read its reply before the deadline.
    answered: [bool; 2],
}

fn bump(counts: &mut Vec<(u64, u32)>, socket: u64, by: i32) {
    match counts.iter_mut().find(|(s, _)| *s == socket) {
        Some((_, n)) => *n = n.saturating_add_signed(by),
        None => counts.push((socket, u32::try_from(by.max(0)).unwrap_or(0))),
    }
}

fn count(counts: &[(u64, u32)], socket: u64) -> u32 {
    counts
        .iter()
        .find(|(s, _)| *s == socket)
        .map_or(0, |&(_, n)| n)
}

impl StashModel {
    /// One socket already parked: both requesters race to reuse it.
    fn new() -> Self {
        Self {
            m: MockMutex::new(V_ICP_MUTEX),
            idle: vec![7],
            held: Vec::new(),
            miss: [false; 2],
            queried: [None; 2],
            owed: Vec::new(),
            queued: Vec::new(),
            answered: [false; 2],
        }
    }

    fn socket_of(&self, tid: usize) -> u64 {
        self.held
            .iter()
            .find(|&&(t, _)| t == tid)
            .map(|&(_, s)| s)
            .expect("the round holds a socket")
    }

    fn check(&self) -> Result<(), String> {
        if self.m.poisoned() {
            return Err("stash mutex protocol violated".to_string());
        }
        let mut ids: Vec<u64> = self
            .idle
            .iter()
            .copied()
            .chain(self.held.iter().map(|&(_, s)| s))
            .collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != n {
            return Err("one socket handed to two rounds at once".to_string());
        }
        for &s in &self.idle {
            if count(&self.owed, s) > 0 {
                return Err(format!("socket {s} parked with a reply in flight"));
            }
        }
        Ok(())
    }
}

/// A requester's round: take a socket under the stash lock (bind outside
/// it on a miss), query, read the reply if it came before the deadline,
/// then return the socket under the lock — parked only when no reply is
/// still owed on it, dropped otherwise. `park_after_timeout` seeds the
/// bug: return every socket to the stash.
fn stash_requester(tid: usize, park_after_timeout: bool) -> MockThread<StashModel> {
    let name = if tid == 0 { "round-a" } else { "round-b" };
    MockThread::new(name)
        .guarded(
            "lock-take",
            &[V_ICP_MUTEX],
            &[V_ICP_MUTEX],
            |s: &StashModel| s.m.is_free(),
            move |s: &mut StashModel| s.m.acquire(tid),
        )
        .step_rw(
            "take-pop",
            &[V_ICP_IDLE],
            &[V_ICP_IDLE, V_ICP_OUT],
            move |s: &mut StashModel| match s.idle.pop() {
                Some(socket) => s.held.push((tid, socket)),
                None => s.miss[tid] = true,
            },
        )
        .step_rw(
            "unlock-take",
            &[],
            &[V_ICP_MUTEX],
            move |s: &mut StashModel| s.m.release(tid),
        )
        .step_rw(
            "bind-outside-lock",
            &[],
            &[V_ICP_OUT],
            move |s: &mut StashModel| {
                if s.miss[tid] {
                    // Fresh sockets are unique by construction.
                    s.held.push((tid, 100 + tid as u64));
                }
            },
        )
        .step_rw(
            "send-query",
            &[V_ICP_OUT],
            &[V_ICP_WIRE],
            move |s: &mut StashModel| {
                let socket = s.socket_of(tid);
                bump(&mut s.owed, socket, 1);
                s.queried[tid] = Some(socket);
            },
        )
        .step_rw(
            "recv-until-deadline",
            &[V_ICP_OUT, V_ICP_WIRE],
            &[V_ICP_WIRE],
            move |s: &mut StashModel| {
                let socket = s.socket_of(tid);
                if count(&s.queued, socket) > 0 {
                    bump(&mut s.queued, socket, -1);
                    bump(&mut s.owed, socket, -1);
                    s.answered[tid] = true;
                }
            },
        )
        .guarded(
            "lock-return",
            &[V_ICP_MUTEX],
            &[V_ICP_MUTEX],
            |s: &StashModel| s.m.is_free(),
            move |s: &mut StashModel| s.m.acquire(tid),
        )
        .step_rw(
            "return-socket",
            &[V_ICP_OUT, V_ICP_WIRE],
            &[V_ICP_IDLE, V_ICP_OUT],
            move |s: &mut StashModel| {
                let at = s
                    .held
                    .iter()
                    .position(|&(t, _)| t == tid)
                    .expect("the round returns its own socket");
                let (_, socket) = s.held.remove(at);
                // Otherwise the socket closes here.
                if s.answered[tid] || park_after_timeout {
                    s.idle.push(socket);
                }
            },
        )
        .step_rw(
            "unlock-return",
            &[],
            &[V_ICP_MUTEX],
            move |s: &mut StashModel| s.m.release(tid),
        )
}

/// The peer answering requester `tid`'s query, at any point after it.
fn stash_replier(tid: usize) -> MockThread<StashModel> {
    let name = if tid == 0 { "peer-of-a" } else { "peer-of-b" };
    MockThread::new(name).guarded(
        "reply",
        &[V_ICP_WIRE],
        &[V_ICP_WIRE],
        move |s: &StashModel| s.queried[tid].is_some(),
        move |s: &mut StashModel| {
            let socket = s.queried[tid].expect("guarded on the query");
            bump(&mut s.queued, socket, 1);
        },
    )
}

fn explore_stash(park_after_timeout: bool) -> Outcome {
    explore(
        &StashModel::new(),
        &[
            stash_requester(0, park_after_timeout),
            stash_requester(1, park_after_timeout),
            stash_replier(0),
            stash_replier(1),
        ],
        StashModel::check,
        &[V_ICP_MUTEX, V_ICP_IDLE, V_ICP_OUT, V_ICP_WIRE],
        Config::default(),
    )
}

/// Two requesters share the stash, each peer answers early or late: no
/// socket serves two rounds at once, none is parked with a reply still
/// owed, in every interleaving.
#[test]
fn icp_stash_never_parks_a_socket_with_a_reply_in_flight() {
    let out = explore_stash(false);
    assert!(
        out.passed(),
        "the parking rule must hold everywhere: {out:?}"
    );
}

/// Seeded violation: park the socket of a round that timed out. Some
/// schedule parks it with its late reply still owed — the checker must
/// catch it.
#[test]
fn icp_stash_parking_after_a_timeout_is_caught() {
    let out = explore_stash(true);
    match out {
        Outcome::InvariantViolation { message, .. } => {
            assert!(
                message.contains("parked with a reply in flight"),
                "{message}"
            );
        }
        other => unreachable!("parking after a timeout must be caught, got {other:?}"),
    }
}

//! A real-thread concurrency storm over the live cluster: request
//! traffic, per-daemon sampler threads, a shared event sink, and a wave
//! of `OP_STATS`/`OP_SERIES` scrapers all run at once — and shutdown
//! lands while the scrapers are still firing. The property under test is
//! liveness: the whole scenario completes within a watchdog timeout, so
//! no lock-across-join or sampler-vs-scraper handoff can wedge it. This
//! is the real-thread counterpart of the `coopcache-interleave` models
//! (and the regression test for the PR 5 sink-lock-across-join class).

use coopcache::net::{scrape_series, scrape_stats, ClusterConfig, LoopbackCluster};
use coopcache::obs::{EventKind, SeriesRing, SinkHandle, Tally};
use coopcache::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

const WATCHDOG: Duration = Duration::from_secs(60);
const REQUESTERS: usize = 2;
const REQUESTS_EACH: u64 = 40;
const SCRAPERS: usize = 4;

#[test]
fn stats_series_storm_with_shutdown_does_not_wedge() {
    let (done_tx, done_rx) = mpsc::channel();
    let scenario = std::thread::spawn(move || {
        let requests_seen = storm();
        let _ = done_tx.send(requests_seen);
    });
    match done_rx.recv_timeout(WATCHDOG) {
        Ok(requests_seen) => {
            scenario.join().expect("storm scenario panicked");
            assert_eq!(
                requests_seen,
                (REQUESTERS as u64) * REQUESTS_EACH,
                "the shared sink must have absorbed every request event"
            );
        }
        Err(_) => panic!(
            "storm scenario wedged for {WATCHDOG:?}: possible deadlock between \
             the stats/series scrape planes, the sampler threads, and shutdown"
        ),
    }
}

fn storm() -> u64 {
    let mut cluster = LoopbackCluster::start_with_config(
        ClusterConfig::new(3, ByteSize::from_kb(64), PlacementScheme::Ea)
            .sample_interval(Duration::from_millis(5)),
    )
    .expect("cluster starts");
    let sink = Arc::new(Mutex::new(Tally::new()));
    cluster.set_sink(SinkHandle::from_arc(Arc::clone(&sink)));
    let addrs = cluster.doc_addrs();
    let scrape_timeout = Duration::from_secs(5);

    // Scrapers hammer every daemon's stats and series endpoints until
    // told to stop. Once shutdown begins, connections fail — that is
    // fine; a scrape that *succeeds* must still be well-formed.
    let stop = Arc::new(AtomicBool::new(false));
    let scrapers: Vec<_> = (0..SCRAPERS)
        .map(|i| {
            let addrs = addrs.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    for (n, addr) in addrs.iter().enumerate() {
                        if (i + n) % 2 == 0 {
                            if let Ok(body) = scrape_stats(*addr, scrape_timeout) {
                                assert!(body.starts_with("{\"cache\":"), "{body}");
                            }
                        } else if let Ok(body) = scrape_series(*addr, scrape_timeout) {
                            let _ = SeriesRing::from_json(&body).expect("series body decodes");
                        }
                    }
                }
            })
        })
        .collect();

    // Request traffic runs concurrently with the scrape storm and the
    // 5 ms samplers.
    let cluster = Arc::new(cluster);
    let requesters: Vec<_> = (0..REQUESTERS)
        .map(|r| {
            let cluster = Arc::clone(&cluster);
            std::thread::spawn(move || {
                for i in 0..REQUESTS_EACH {
                    let doc = DocId::new(i % 7 + 1);
                    let idx = (i as usize + r) % cluster.len();
                    cluster
                        .request(idx, doc, ByteSize::from_kb(2))
                        .expect("request succeeds while the cluster is up");
                }
            })
        })
        .collect();
    for r in requesters {
        r.join().expect("requester panicked");
    }

    // Shutdown races the still-running scrapers: this joins the server,
    // sampler, and origin threads while OP_STATS/OP_SERIES probes are in
    // flight — the exact pattern that deadlocks if any of those threads
    // blocks under a lock the scrape path needs.
    let cluster = Arc::try_unwrap(cluster).expect("requesters dropped their handles");
    cluster.shutdown();
    stop.store(true, Ordering::Release);
    for s in scrapers {
        s.join().expect("scraper panicked");
    }

    let agg = sink
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    agg.count(EventKind::Request)
}

//! The workload generator: turns a [`TraceProfile`] into a [`Trace`].

use crate::dist::{Distribution, Exponential, InvalidParamError, LogNormal, Pareto, Zipf};
use crate::profile::TraceProfile;
use crate::rng::Rng;
use coopcache_types::{ByteSize, ClientId, DocId, DurationMs, Request, Timestamp};
use std::collections::VecDeque;

/// A complete, time-ordered synthetic workload.
///
/// Produced by [`generate`]; consumed by the simulator, the trace file
/// writer, and the statistics reporter.
///
/// # Example
///
/// ```
/// use coopcache_trace::{generate, TraceProfile};
/// let trace = generate(&TraceProfile::small()).unwrap();
/// assert!(trace.stats().unique_docs > 0);
/// let first = trace.requests().first().unwrap();
/// let last = trace.requests().last().unwrap();
/// assert!(first.time <= last.time);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    requests: Vec<Request>,
}

impl Trace {
    /// Wraps a list of requests, putting it in chronological order.
    ///
    /// The order is stable by timestamp: requests with equal times keep
    /// their input order, so every `Trace` upholds the chronological
    /// invariant and one input always yields one trace. Input that is
    /// already sorted passes through untouched after one linear check.
    /// Otherwise the sort needs one `usize` per request of extra memory (a
    /// stable merge sort of the records would need half the records).
    #[must_use]
    pub fn from_requests(mut requests: Vec<Request>) -> Self {
        if !requests.is_sorted_by_key(|r| r.time) {
            // Sort positions, not records: the position breaks time ties,
            // which makes the unstable sort produce exactly the stable
            // order.
            let mut order: Vec<usize> = (0..requests.len()).collect();
            order.sort_unstable_by_key(|&i| (requests[i].time, i));
            permute_in_place(&mut requests, &mut order);
        }
        Self { requests }
    }

    /// The records, in chronological order.
    #[must_use]
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the trace holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Iterates over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, Request> {
        self.requests.iter()
    }

    /// Computes aggregate statistics over the trace.
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_requests(&self.requests)
    }
}

/// Rearranges `requests` so that position `k` holds what was at
/// `order[k]`, following each cycle of the permutation once; `order` is
/// consumed as the visited marks (a finished position points at itself).
fn permute_in_place(requests: &mut [Request], order: &mut [usize]) {
    for start in 0..requests.len() {
        if order[start] == start {
            continue;
        }
        let first = requests[start];
        let mut at = start;
        loop {
            let from = order[at];
            order[at] = at;
            if from == start {
                requests[at] = first;
                break;
            }
            requests[at] = requests[from];
            at = from;
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Request;
    type IntoIter = std::slice::Iter<'a, Request>;
    fn into_iter(self) -> Self::IntoIter {
        self.requests.iter()
    }
}

impl IntoIterator for Trace {
    type Item = Request;
    type IntoIter = std::vec::IntoIter<Request>;
    fn into_iter(self) -> Self::IntoIter {
        self.requests.into_iter()
    }
}

impl FromIterator<Request> for Trace {
    fn from_iter<I: IntoIterator<Item = Request>>(iter: I) -> Self {
        Self::from_requests(iter.into_iter().collect())
    }
}

/// Aggregate statistics of a trace; compare against the BU-94 numbers the
/// paper reports (575,775 records / 46,830 unique / 591 users).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Total records.
    pub requests: usize,
    /// Distinct documents referenced.
    pub unique_docs: usize,
    /// Distinct clients appearing.
    pub unique_clients: usize,
    /// Sum of sizes over all records.
    pub total_bytes: ByteSize,
    /// Sum of sizes over distinct documents (the group's compulsory
    /// working-set size: an aggregate cache this large can hold everything).
    pub unique_bytes: ByteSize,
    /// Time of the first record.
    pub start: Timestamp,
    /// Time of the last record.
    pub end: Timestamp,
}

impl TraceStats {
    /// Computes statistics from a record slice.
    #[must_use]
    pub fn from_requests(requests: &[Request]) -> Self {
        use std::collections::{BTreeMap, BTreeSet};
        let mut docs: BTreeMap<DocId, ByteSize> = BTreeMap::new();
        let mut clients: BTreeSet<ClientId> = BTreeSet::new();
        let mut total = ByteSize::ZERO;
        let mut start = Timestamp::from_millis(u64::MAX);
        let mut end = Timestamp::ZERO;
        for r in requests {
            docs.entry(r.doc).or_insert(r.size);
            clients.insert(r.client);
            total += r.size;
            start = start.min(r.time);
            end = end.max(r.time);
        }
        if requests.is_empty() {
            start = Timestamp::ZERO;
        }
        Self {
            requests: requests.len(),
            unique_docs: docs.len(),
            unique_clients: clients.len(),
            total_bytes: total,
            unique_bytes: docs.values().copied().sum(),
            start,
            end,
        }
    }

    /// Mean document size over distinct documents (zero if empty).
    #[must_use]
    pub fn mean_doc_size(&self) -> ByteSize {
        if self.unique_docs == 0 {
            ByteSize::ZERO
        } else {
            ByteSize::from_bytes(self.unique_bytes.as_bytes() / self.unique_docs as u64)
        }
    }
}

/// Generates a deterministic synthetic trace from a profile.
///
/// The generator uses independent PRNG streams for document sizes, session
/// placement, popularity and temporal locality, so changing one profile knob
/// does not reshuffle unrelated aspects of the workload.
///
/// # Errors
///
/// Returns [`InvalidParamError`] if the profile fails
/// [`TraceProfile::validate`].
///
/// # Example
///
/// ```
/// use coopcache_trace::{generate, TraceProfile};
/// let a = generate(&TraceProfile::small()).unwrap();
/// let b = generate(&TraceProfile::small()).unwrap();
/// assert_eq!(a, b); // same profile, same trace
/// ```
pub fn generate(profile: &TraceProfile) -> Result<Trace, InvalidParamError> {
    profile.validate()?;
    // The draw's tables (sizes, popularity, histories) are freed before
    // the sort, so the two never hold memory at once.
    Ok(Trace::from_requests(draw_requests(profile)?))
}

/// Draws a validated profile's requests, session by session (so not yet
/// in time order).
fn draw_requests(profile: &TraceProfile) -> Result<Vec<Request>, InvalidParamError> {
    let mut root = Rng::seed_from(profile.seed);
    let mut rng_size = root.split();
    let mut rng_session = root.split();
    let mut rng_pop = root.split();
    let mut rng_local = root.split();
    let mut rng_flash = root.split();
    let flash_seed = root.next_u64();

    let sizes = document_sizes(profile, &mut rng_size);
    let popularity = Zipf::new(profile.unique_docs, profile.zipf_alpha)?;
    let think = Exponential::new(profile.think_time_mean.as_millis() as f64)?;

    // --- Sessions: owner client, start time, share of the request budget.
    // Session ownership follows a Zipf over clients: real proxy user
    // populations are heavily skewed, which skews per-cache load and
    // therefore per-cache disk contention — the asymmetry the EA scheme's
    // expiration-age comparisons feed on.
    let n_sessions = profile.sessions as usize;
    let activity = Zipf::new(u64::from(profile.clients), profile.client_activity_skew)?;
    let mut owners: Vec<ClientId> = (0..n_sessions)
        .map(|_| ClientId::new((activity.sample(&mut rng_session) - 1) as u32))
        .collect();
    rng_session.shuffle(&mut owners);
    let mut starts: Vec<Timestamp> = (0..n_sessions)
        .map(|_| Timestamp::from_millis(rng_session.next_below(profile.horizon.as_millis())))
        .collect();
    starts.sort_unstable();
    // Request budget per session: proportional shares drawn from an
    // exponential (so session lengths are skewed, as in real logs), with
    // every session guaranteed at least one request when budget allows.
    let weights: Vec<f64> = (0..n_sessions)
        .map(|_| -rng_session.next_f64_open().ln())
        .collect();
    let weight_sum: f64 = weights.iter().sum();
    let mut budgets: Vec<usize> = weights
        .iter()
        .map(|w| ((w / weight_sum) * profile.requests as f64).floor() as usize)
        .collect();
    let mut assigned: usize = budgets.iter().sum();
    // Distribute the rounding remainder one request at a time.
    let mut i = 0;
    while assigned < profile.requests {
        budgets[i % n_sessions] += 1;
        assigned += 1;
        i += 1;
    }

    // --- Per-client recent-history windows for temporal locality.
    let mut history: Vec<VecDeque<DocId>> =
        vec![VecDeque::with_capacity(profile.locality_window); profile.clients as usize];

    // --- Flash-crowd state: the currently hot shared set, rotated per
    // epoch; lazily (re)derived so the epoch sequence is deterministic no
    // matter in which order sessions touch it.
    let mut flash_cache: (u64, Vec<DocId>) = (u64::MAX, Vec::new());
    let flash_doc = |epoch: u64, rng: &mut Rng, cache: &mut (u64, Vec<DocId>)| -> DocId {
        if cache.0 != epoch {
            let mut epoch_rng =
                Rng::seed_from(flash_seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            cache.1 = (0..profile.flash_docs.max(1))
                .map(|_| DocId::new(popularity.sample(&mut epoch_rng)))
                .collect();
            cache.0 = epoch;
        }
        *rng.choose(&cache.1)
    };

    let mut requests = Vec::with_capacity(profile.requests);
    for s in 0..n_sessions {
        let client = owners[s];
        let mut t = starts[s];
        for _ in 0..budgets[s] {
            let hist = &mut history[client.as_u32() as usize];
            let doc = if rng_flash.next_bool(profile.flash_probability) {
                // Cross-client flash traffic: everyone shares the same
                // currently-hot documents within an epoch.
                let epoch = t.as_millis() / profile.flash_epoch.as_millis().max(1);
                flash_doc(epoch, &mut rng_flash, &mut flash_cache)
            } else if !hist.is_empty() && rng_local.next_bool(profile.locality_probability) {
                // Re-reference a recent document, biased toward the newest.
                let idx = recency_biased_index(&mut rng_local, hist.len());
                hist[idx]
            } else {
                DocId::new(popularity.sample(&mut rng_pop))
            };
            if hist.back() != Some(&doc) {
                if hist.len() == profile.locality_window {
                    hist.pop_front();
                }
                hist.push_back(doc);
            }
            let size = sizes[(doc.as_u64() - 1) as usize];
            requests.push(Request::new(t, client, doc, size));
            t += DurationMs::from_millis(think.sample(&mut rng_local).max(1.0) as u64);
        }
    }
    Ok(requests)
}

/// Draws a stable size for every document in the universe.
fn document_sizes(profile: &TraceProfile, rng: &mut Rng) -> Vec<ByteSize> {
    #[expect(
        clippy::expect_used,
        reason = "generate() validates the profile first, which rejects non-finite mu/sigma, \
                  so construction cannot fail"
    )]
    let body = LogNormal::new(profile.size_mu, profile.size_sigma)
        .expect("profile validated lognormal params");
    #[expect(
        clippy::expect_used,
        reason = "both arguments are clamped strictly positive, which is all Pareto::new requires"
    )]
    let tail = Pareto::new(profile.tail_x_min.max(1.0), profile.tail_alpha.max(0.01))
        .expect("profile validated pareto params");
    let (lo, hi) = profile.size_clamp;
    (0..profile.unique_docs)
        .map(|_| {
            if rng.next_bool(profile.zero_size_fraction) {
                // The original log recorded zero bytes; the paper patches
                // these to the 4 KB average document size.
                return profile.zero_size_patch;
            }
            let raw = if rng.next_bool(profile.tail_fraction) {
                tail.sample(rng)
            } else {
                body.sample(rng)
            };
            ByteSize::from_bytes((raw as u64).clamp(lo.as_bytes(), hi.as_bytes()))
        })
        .collect()
}

/// Picks an index in `0..len` biased toward the most recent entries
/// (geometric with ratio 1/2 from the back, clamped to the front).
fn recency_biased_index(rng: &mut Rng, len: usize) -> usize {
    debug_assert!(len > 0);
    let mut back_off = 0usize;
    while back_off + 1 < len && rng.next_bool(0.5) {
        back_off += 1;
    }
    len - 1 - back_off
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let p = TraceProfile::small();
        assert_eq!(generate(&p).unwrap(), generate(&p).unwrap());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&TraceProfile::small().with_seed(1)).unwrap();
        let b = generate(&TraceProfile::small().with_seed(2)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn exact_request_count() {
        let p = TraceProfile::small().with_requests(12_345);
        assert_eq!(generate(&p).unwrap().len(), 12_345);
    }

    #[test]
    fn trace_is_chronological() {
        let t = generate(&TraceProfile::small()).unwrap();
        for w in t.requests().windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn stats_are_plausible() {
        let p = TraceProfile::small();
        let t = generate(&p).unwrap();
        let s = t.stats();
        assert_eq!(s.requests, p.requests);
        // Most of the universe gets touched, but re-referencing keeps
        // uniques well below the request count.
        assert!(s.unique_docs > (p.unique_docs as usize) / 2);
        assert!(s.unique_docs <= p.unique_docs as usize);
        assert!(s.unique_clients <= p.clients as usize);
        // Activity is Zipf-skewed, so not every client need appear, but a
        // solid majority should.
        assert!(s.unique_clients > (p.clients as usize) / 3);
        assert!(s.total_bytes > s.unique_bytes);
        assert!(s.end > s.start);
        assert!(s.mean_doc_size() > ByteSize::from_bytes(500));
        assert!(s.mean_doc_size() < ByteSize::from_kb(100));
    }

    #[test]
    fn doc_sizes_are_stable_per_doc() {
        let t = generate(&TraceProfile::small()).unwrap();
        use std::collections::BTreeMap;
        let mut seen: BTreeMap<DocId, ByteSize> = BTreeMap::new();
        for r in &t {
            let prev = seen.insert(r.doc, r.size);
            if let Some(prev) = prev {
                assert_eq!(prev, r.size, "doc {} changed size", r.doc);
            }
        }
    }

    #[test]
    fn sizes_respect_clamp() {
        let p = TraceProfile::small();
        let t = generate(&p).unwrap();
        for r in &t {
            assert!(r.size >= p.size_clamp.0 && r.size <= p.size_clamp.1);
        }
    }

    #[test]
    fn popularity_is_skewed() {
        let t = generate(&TraceProfile::small()).unwrap();
        use std::collections::BTreeMap;
        let mut freq: BTreeMap<DocId, usize> = BTreeMap::new();
        for r in &t {
            *freq.entry(r.doc).or_default() += 1;
        }
        let mut counts: Vec<usize> = freq.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = counts.iter().take(10).sum();
        // Zipf 0.75 + locality: the top 10 of 2000 documents should draw a
        // clearly disproportionate share (far above the uniform 0.5%).
        assert!(
            top10 * 100 / t.len() >= 3,
            "top-10 docs only got {top10} of {} requests",
            t.len()
        );
    }

    #[test]
    fn invalid_profile_is_rejected() {
        assert!(generate(&TraceProfile::small().with_requests(0)).is_err());
    }

    #[test]
    fn from_requests_sorts() {
        let mk = |ms| {
            Request::new(
                Timestamp::from_millis(ms),
                ClientId::new(0),
                DocId::new(1),
                ByteSize::from_bytes(1),
            )
        };
        let t = Trace::from_requests(vec![mk(5), mk(1), mk(3)]);
        let times: Vec<u64> = t.iter().map(|r| r.time.as_millis()).collect();
        assert_eq!(times, vec![1, 3, 5]);
    }

    #[test]
    fn from_requests_is_the_stable_time_sort() {
        // Short vectors over at most 8 distinct times, so nearly all hold
        // ties; each record's client is its input position, so a tie
        // resolved out of input order shows as a mismatch.
        let mut rng = Rng::seed_from(0x5EED_50E7);
        for _ in 0..5_000 {
            let len = rng.next_below(65) as u32;
            let times = 1 + rng.next_below(8);
            let requests: Vec<Request> = (0..len)
                .map(|k| {
                    Request::new(
                        Timestamp::from_millis(rng.next_below(times)),
                        ClientId::new(k),
                        DocId::new(1),
                        ByteSize::from_bytes(1),
                    )
                })
                .collect();
            let mut want = requests.clone();
            want.sort_by_key(|r| r.time);
            assert_eq!(Trace::from_requests(requests).requests(), want);
        }
        // Already-sorted input (with ties) passes through as it is.
        let input = generate(&TraceProfile::small())
            .unwrap()
            .requests()
            .to_vec();
        assert_eq!(Trace::from_requests(input.clone()).requests(), input);
        for short in [&input[..0], &input[..1]] {
            assert_eq!(Trace::from_requests(short.to_vec()).requests(), short);
        }
    }

    #[test]
    fn collect_into_trace() {
        let mk = |ms| {
            Request::new(
                Timestamp::from_millis(ms),
                ClientId::new(0),
                DocId::new(1),
                ByteSize::from_bytes(1),
            )
        };
        let t: Trace = vec![mk(2), mk(1)].into_iter().collect();
        assert_eq!(t.len(), 2);
        assert_eq!(t.requests()[0].time.as_millis(), 1);
    }

    #[test]
    fn empty_trace_stats() {
        let s = Trace::default().stats();
        assert_eq!(s.requests, 0);
        assert_eq!(s.unique_docs, 0);
        assert_eq!(s.mean_doc_size(), ByteSize::ZERO);
        assert!(Trace::default().is_empty());
    }

    #[test]
    fn bu94_scale_smoke() {
        // Generate the full-scale trace once to confirm the generator
        // handles the paper's scale; keep assertions coarse so the test
        // stays meaningful under profile tuning.
        let p = TraceProfile::bu94().with_requests(100_000);
        let t = generate(&p).unwrap();
        let s = t.stats();
        assert_eq!(s.requests, 100_000);
        // Activity is heavily Zipf-skewed (as in real proxy populations),
        // so only the active core of the 591-user population appears.
        assert!(s.unique_clients as u32 >= p.clients / 4);
    }
}

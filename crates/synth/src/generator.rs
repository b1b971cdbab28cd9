//! Trace generation from profiles: [`VolumeGenerator`] and
//! [`CorpusGenerator`].

use cbs_trace::{IoRequest, OpKind, TimeDelta, Timestamp, Trace};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::arrival::ArrivalGen;
use crate::dist::Exponential;
use crate::error::InvalidProfile;
use crate::profile::VolumeProfile;
use crate::spatial::AddressGen;

/// Unwraps a model construction that profile validation has already
/// proven infallible: every sub-model constructor only fails on inputs
/// [`VolumeProfile::validate`] rejects, and the generator constructors
/// validate before building.
pub(crate) fn validated<T>(result: Result<T, InvalidProfile>) -> T {
    match result {
        Ok(value) => value,
        #[expect(
            clippy::unreachable,
            reason = "the generator constructors validate every profile up front, so sub-model construction cannot fail"
        )]
        Err(e) => unreachable!("validated profile rejected: {e}"),
    }
}

/// Steady Poisson stream of single-request arrivals — the background
/// ("heartbeat") component of a volume's traffic.
#[derive(Debug)]
struct BackgroundGen {
    rng: SmallRng,
    gap: Exponential,
    next_ts: Timestamp,
    end: Timestamp,
}

impl BackgroundGen {
    fn new(rate_rps: f64, start: Timestamp, end: Timestamp, mut rng: SmallRng) -> Option<Self> {
        let gap = Exponential::new(rate_rps)?;
        // saturating: a pathological rate can push the first arrival past
        // the clock's end; MAX means "never", which `next` handles.
        let first = start.saturating_add(TimeDelta::from_secs_f64(gap.sample(&mut rng).min(1e9)));
        Some(BackgroundGen {
            rng,
            gap,
            next_ts: first,
            end,
        })
    }
}

impl Iterator for BackgroundGen {
    type Item = Timestamp;

    fn next(&mut self) -> Option<Timestamp> {
        if self.next_ts >= self.end {
            return None;
        }
        let ts = self.next_ts;
        let delta = TimeDelta::from_secs_f64(self.gap.sample(&mut self.rng).min(1e9));
        self.next_ts = self.next_ts.checked_add(delta).unwrap_or(Timestamp::MAX);
        Some(ts)
    }
}

/// Merges two sorted timestamp streams.
fn merge_sorted(a: Vec<Timestamp>, b: Vec<Timestamp>) -> Vec<Timestamp> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Generates one volume's time-sorted request stream from its profile.
#[derive(Debug)]
pub struct VolumeGenerator {
    profile: VolumeProfile,
}

impl VolumeGenerator {
    /// Creates a generator.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidProfile`] if the profile fails
    /// [`VolumeProfile::validate`].
    pub fn new(profile: VolumeProfile) -> Result<Self, InvalidProfile> {
        profile
            .validate()
            .map_err(|e| InvalidProfile(format!("volume {}: {e}", profile.id)))?;
        Ok(VolumeGenerator { profile })
    }

    /// The profile being generated.
    pub fn profile(&self) -> &VolumeProfile {
        &self.profile
    }

    /// Returns a pull-based iterator over the volume's time-sorted
    /// request stream.
    ///
    /// The iterator produces **exactly** the sequence of
    /// [`VolumeGenerator::generate`] (same RNG draws in the same order,
    /// same tie-breaking between arrival traffic and daily-rewrite
    /// runs) while holding only O(1) state — this is what lets presets
    /// feed a streaming analysis without materializing the trace.
    pub fn iter(&self) -> VolumeIter {
        VolumeIter::new(self.profile.clone())
    }

    /// Generates the volume's full request stream, sorted by timestamp.
    pub fn generate(&self) -> Vec<IoRequest> {
        let p = &self.profile;
        let mut rng = SmallRng::seed_from_u64(p.seed);
        let arrival_rng = SmallRng::seed_from_u64(rng.gen());
        let mut read_addr = validated(AddressGen::new(p.read_spatial.clone()));
        let mut write_addr = validated(AddressGen::new(p.write_spatial.clone()));

        let mut requests: Vec<IoRequest> = Vec::new();
        let burst_times: Vec<Timestamp> = validated(ArrivalGen::new(
            &p.arrival,
            p.live_start,
            p.live_end,
            arrival_rng,
        ))
        .collect();
        let bg_rate = p.arrival.avg_rate_rps * p.arrival.background_fraction;
        let background: Vec<Timestamp> = if bg_rate > 0.0 {
            BackgroundGen::new(
                bg_rate,
                p.live_start,
                p.live_end,
                SmallRng::seed_from_u64(rng.gen()),
            )
            .map(Iterator::collect)
            .unwrap_or_default()
        } else {
            Vec::new()
        };
        let arrivals = merge_sorted(burst_times, background);
        for ts in arrivals {
            let is_write = rng.gen::<f64>() < p.write_fraction;
            let (op, size, addr) = if is_write {
                (
                    OpKind::Write,
                    p.write_size.sample(&mut rng),
                    &mut write_addr,
                )
            } else {
                (OpKind::Read, p.read_size.sample(&mut rng), &mut read_addr)
            };
            let offset = addr.next_offset(&mut rng, size);
            requests.push(IoRequest::new(p.id, op, offset, size, ts));
        }

        if let Some(job) = &p.daily_rewrite {
            let mut job_requests = self.generate_daily_rewrites(job);
            requests.append(&mut job_requests);
            requests.sort_by_key(IoRequest::ts);
        }
        requests
    }

    /// Emits the daily sequential rewrite runs that fall inside the
    /// live window.
    fn generate_daily_rewrites(&self, job: &crate::profile::DailyRewrite) -> Vec<IoRequest> {
        let p = &self.profile;
        let mut out = Vec::new();
        let first_day = p.live_start.day_index();
        let last_day = p.live_end.day_index();
        for day in first_day..=last_day {
            let start_us = day * cbs_trace::time::MICROS_PER_DAY
                + (job.at_hour * cbs_trace::time::MICROS_PER_HOUR as f64) as u64;
            let mut ts = Timestamp::from_micros(start_us);
            if ts < p.live_start {
                continue;
            }
            let mut offset = job.region_start;
            let end = job.region_start + job.region_len;
            while offset < end && ts < p.live_end {
                // the min against a u32 keeps the cast lossless
                let len = (end - offset).min(u64::from(job.request_size)) as u32;
                out.push(IoRequest::new(p.id, OpKind::Write, offset, len, ts));
                offset += u64::from(len);
                // saturating: `ts < live_end` terminates the loop, so a
                // clamped MAX ends the run instead of wrapping/panicking
                ts = ts.saturating_add(TimeDelta::from_micros(job.gap_us));
            }
        }
        out
    }
}

/// One pending daily sequential rewrite run (lazy counterpart of one
/// `generate_daily_rewrites` day loop iteration).
#[derive(Debug)]
struct RewriteRun {
    id: cbs_trace::VolumeId,
    ts: Timestamp,
    offset: u64,
    end: u64,
    request_size: u32,
    gap_us: u64,
    live_end: Timestamp,
}

impl RewriteRun {
    /// Timestamp of the next request this run would emit, if any.
    fn peek_ts(&self) -> Option<Timestamp> {
        (self.offset < self.end && self.ts < self.live_end).then_some(self.ts)
    }
}

impl Iterator for RewriteRun {
    type Item = IoRequest;

    fn next(&mut self) -> Option<IoRequest> {
        if self.offset >= self.end || self.ts >= self.live_end {
            return None;
        }
        // the min against a u32 keeps the cast lossless
        let len = (self.end - self.offset).min(u64::from(self.request_size)) as u32;
        let req = IoRequest::new(self.id, OpKind::Write, self.offset, len, self.ts);
        self.offset += u64::from(len);
        // saturating, for the same reason as the batch path above
        self.ts = self.ts.saturating_add(TimeDelta::from_micros(self.gap_us));
        Some(req)
    }
}

/// Lazy, time-sorted request stream of one volume — see
/// [`VolumeGenerator::iter`].
///
/// Internally merges three sorted sources while replicating the batch
/// path's draw order and tie-breaking exactly:
///
/// * burst arrivals ([`ArrivalGen`]) and background arrivals
///   ([`BackgroundGen`]) merge with bursts winning timestamp ties
///   (mirroring `merge_sorted`);
/// * per-request op/size/offset draws happen in merged *arrival* order
///   from the main RNG, untouched by rewrite traffic;
/// * daily rewrite runs merge in afterwards, losing timestamp ties to
///   arrival traffic and breaking run-vs-run ties by day order
///   (mirroring the batch path's stable sort over the concatenation).
#[derive(Debug)]
pub struct VolumeIter {
    profile: VolumeProfile,
    rng: SmallRng,
    read_addr: AddressGen,
    write_addr: AddressGen,
    burst: ArrivalGen<SmallRng>,
    background: Option<BackgroundGen>,
    next_burst: Option<Timestamp>,
    next_background: Option<Timestamp>,
    runs: Vec<RewriteRun>,
}

impl VolumeIter {
    fn new(p: VolumeProfile) -> Self {
        // The draw order from the seed RNG must match `generate()`:
        // arrival seed first, then (only if background traffic exists)
        // the background seed.
        let mut rng = SmallRng::seed_from_u64(p.seed);
        let arrival_rng = SmallRng::seed_from_u64(rng.gen());
        let read_addr = validated(AddressGen::new(p.read_spatial.clone()));
        let write_addr = validated(AddressGen::new(p.write_spatial.clone()));
        let burst = validated(ArrivalGen::new(
            &p.arrival,
            p.live_start,
            p.live_end,
            arrival_rng,
        ));
        let bg_rate = p.arrival.avg_rate_rps * p.arrival.background_fraction;
        let background = if bg_rate > 0.0 {
            BackgroundGen::new(
                bg_rate,
                p.live_start,
                p.live_end,
                SmallRng::seed_from_u64(rng.gen()),
            )
        } else {
            None
        };
        let mut runs = Vec::new();
        if let Some(job) = &p.daily_rewrite {
            let first_day = p.live_start.day_index();
            let last_day = p.live_end.day_index();
            for day in first_day..=last_day {
                let start_us = day * cbs_trace::time::MICROS_PER_DAY
                    + (job.at_hour * cbs_trace::time::MICROS_PER_HOUR as f64) as u64;
                let ts = Timestamp::from_micros(start_us);
                if ts < p.live_start {
                    continue;
                }
                runs.push(RewriteRun {
                    id: p.id,
                    ts,
                    offset: job.region_start,
                    end: job.region_start + job.region_len,
                    request_size: job.request_size,
                    gap_us: job.gap_us,
                    live_end: p.live_end,
                });
            }
        }
        VolumeIter {
            profile: p,
            rng,
            read_addr,
            write_addr,
            burst,
            background,
            next_burst: None,
            next_background: None,
            runs,
        }
    }

    /// Fills the peek slots and returns the next merged arrival
    /// timestamp without consuming it.
    fn peek_arrival(&mut self) -> Option<Timestamp> {
        if self.next_burst.is_none() {
            self.next_burst = self.burst.next();
        }
        if self.next_background.is_none() {
            self.next_background = self.background.as_mut().and_then(Iterator::next);
        }
        match (self.next_burst, self.next_background) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        }
    }

    /// Consumes the peeked arrival timestamp (bursts win ties, matching
    /// `merge_sorted`'s `a <= b` branch).
    fn pop_arrival(&mut self) -> Option<Timestamp> {
        match (self.next_burst, self.next_background) {
            (Some(a), Some(b)) if a <= b => self.next_burst.take(),
            (Some(_), Some(_)) => self.next_background.take(),
            (Some(_), None) => self.next_burst.take(),
            (None, _) => self.next_background.take(),
        }
    }

    /// Draws op, size, and offset for one arrival — the only place the
    /// main RNG advances, in merged arrival order like the batch path.
    fn emit_arrival(&mut self, ts: Timestamp) -> IoRequest {
        let p = &self.profile;
        let is_write = self.rng.gen::<f64>() < p.write_fraction;
        let (op, size, addr) = if is_write {
            (
                OpKind::Write,
                p.write_size.sample(&mut self.rng),
                &mut self.write_addr,
            )
        } else {
            (
                OpKind::Read,
                p.read_size.sample(&mut self.rng),
                &mut self.read_addr,
            )
        };
        let offset = addr.next_offset(&mut self.rng, size);
        IoRequest::new(p.id, op, offset, size, ts)
    }
}

impl Iterator for VolumeIter {
    type Item = IoRequest;

    fn next(&mut self) -> Option<IoRequest> {
        let arrival_ts = self.peek_arrival();
        // Earliest-timestamp rewrite run; earlier days win ties, which
        // reproduces the stable sort over [arrivals, day 0, day 1, ...].
        let mut best_run: Option<(usize, Timestamp)> = None;
        for (i, run) in self.runs.iter().enumerate() {
            if let Some(ts) = run.peek_ts() {
                if best_run.map_or(true, |(_, best)| ts < best) {
                    best_run = Some((i, ts));
                }
            }
        }
        match (arrival_ts, best_run) {
            // A run emits only when strictly earlier: on equal
            // timestamps the arrival requests preceded the appended
            // rewrites in the batch concatenation.
            (Some(a), Some((i, r))) if r < a => self.runs[i].next(),
            (Some(ts), _) => {
                // consume the peek slot the min came from; `ts` equals
                // the consumed value by construction
                let _ = self.pop_arrival();
                Some(self.emit_arrival(ts))
            }
            (None, Some((i, _))) => self.runs[i].next(),
            (None, None) => None,
        }
    }
}

/// Generates a whole corpus from a set of profiles.
#[derive(Debug)]
pub struct CorpusGenerator {
    profiles: Vec<VolumeProfile>,
}

impl CorpusGenerator {
    /// Creates a generator over `profiles`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidProfile`] for the first profile that fails
    /// validation.
    pub fn new(profiles: Vec<VolumeProfile>) -> Result<Self, InvalidProfile> {
        for p in &profiles {
            p.validate()
                .map_err(|e| InvalidProfile(format!("volume {}: {e}", p.id)))?;
        }
        Ok(CorpusGenerator { profiles })
    }

    /// The profiles in the corpus.
    pub fn profiles(&self) -> &[VolumeProfile] {
        &self.profiles
    }

    /// Generates the full corpus trace.
    pub fn generate(&self) -> Trace {
        let mut all: Vec<IoRequest> = Vec::new();
        for profile in &self.profiles {
            all.extend(validated(VolumeGenerator::new(profile.clone())).generate());
        }
        Trace::from_requests(all)
    }

    /// Generates only the volume at `index`, as in the whole corpus: a
    /// by-volume analysis's source. `None` if `index` is out of range.
    pub fn generate_volume(&self, index: usize) -> Option<Vec<IoRequest>> {
        let profile = self.profiles.get(index)?;
        Some(validated(VolumeGenerator::new(profile.clone())).generate())
    }

    /// Returns a pull-based, globally time-ordered stream over the whole
    /// corpus, holding only O(volumes) state.
    ///
    /// The stream k-way merges one [`VolumeIter`] per profile (earlier
    /// profiles win timestamp ties), so the per-volume subsequences are
    /// exactly the per-volume runs of [`CorpusGenerator::generate`] and
    /// the first item carries the trace's epoch timestamp. This is the
    /// entry point for analyzing synthetic corpora of hundreds of
    /// millions of requests without materializing a `Trace`.
    pub fn stream(&self) -> CorpusStream {
        let volumes: Vec<VolumeIter> = self
            .profiles
            .iter()
            .map(|p| validated(VolumeGenerator::new(p.clone())).iter())
            .collect();
        let pending = volumes.iter().map(|_| None).collect();
        CorpusStream { volumes, pending }
    }
}

/// Lazy, globally time-ordered corpus stream — see
/// [`CorpusGenerator::stream`].
#[derive(Debug)]
pub struct CorpusStream {
    volumes: Vec<VolumeIter>,
    /// Peeked head of each volume stream.
    pending: Vec<Option<IoRequest>>,
}

impl Iterator for CorpusStream {
    type Item = IoRequest;

    fn next(&mut self) -> Option<IoRequest> {
        let mut best: Option<(usize, Timestamp)> = None;
        for i in 0..self.volumes.len() {
            if self.pending[i].is_none() {
                self.pending[i] = self.volumes[i].next();
            }
            if let Some(req) = &self.pending[i] {
                if best.map_or(true, |(_, ts)| req.ts() < ts) {
                    best = Some((i, req.ts()));
                }
            }
        }
        best.and_then(|(i, _)| self.pending[i].take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DailyRewrite;
    use crate::size::SizeModel;
    use crate::spatial::SpatialModel;
    use cbs_trace::VolumeId;

    const MIB: u64 = 1 << 20;

    fn profile(id: u32, seed: u64) -> VolumeProfile {
        VolumeProfile {
            id: VolumeId::new(id),
            capacity_bytes: 1024 * MIB,
            live_start: Timestamp::ZERO,
            live_end: Timestamp::from_hours(4),
            write_fraction: 0.75,
            arrival: crate::arrival::ArrivalModel::steady(2.0),
            read_spatial: SpatialModel::uniform(512 * MIB, 128 * MIB),
            write_spatial: SpatialModel::uniform(0, 64 * MIB),
            read_size: SizeModel::small_reads(),
            write_size: SizeModel::small_writes(),
            daily_rewrite: None,
            seed,
        }
    }

    #[test]
    fn stream_is_sorted_and_windowed() {
        let reqs = VolumeGenerator::new(profile(3, 1))
            .expect("valid profile")
            .generate();
        assert!(!reqs.is_empty());
        assert!(reqs.windows(2).all(|w| w[0].ts() <= w[1].ts()));
        assert!(reqs.iter().all(|r| r.ts() < Timestamp::from_hours(4)));
        assert!(reqs.iter().all(|r| r.volume() == VolumeId::new(3)));
    }

    #[test]
    fn write_fraction_is_respected() {
        let reqs = VolumeGenerator::new(profile(0, 2))
            .expect("valid profile")
            .generate();
        let writes = reqs.iter().filter(|r| r.is_write()).count();
        let frac = writes as f64 / reqs.len() as f64;
        assert!((frac - 0.75).abs() < 0.03, "write fraction {frac}");
    }

    #[test]
    fn reads_and_writes_target_their_regions() {
        let reqs = VolumeGenerator::new(profile(0, 3))
            .expect("valid profile")
            .generate();
        for r in &reqs {
            if r.is_write() {
                assert!(r.end_offset() <= 64 * MIB, "{r}");
            } else {
                assert!(
                    r.offset() >= 512 * MIB && r.end_offset() <= 640 * MIB,
                    "{r}"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = VolumeGenerator::new(profile(0, 42))
            .expect("valid profile")
            .generate();
        let b = VolumeGenerator::new(profile(0, 42))
            .expect("valid profile")
            .generate();
        assert_eq!(a, b);
        let c = VolumeGenerator::new(profile(0, 43))
            .expect("valid profile")
            .generate();
        assert_ne!(a, c);
    }

    #[test]
    fn daily_rewrite_runs_every_day() {
        let mut p = profile(0, 4);
        p.live_end = Timestamp::from_days(3);
        p.write_fraction = 1.0;
        p.daily_rewrite = Some(DailyRewrite {
            at_hour: 2.0,
            region_start: 900 * MIB,
            region_len: MIB,
            request_size: 64 * 1024,
            gap_us: 500,
        });
        let reqs = VolumeGenerator::new(p).expect("valid profile").generate();
        let job_reqs: Vec<_> = reqs
            .iter()
            .filter(|r| r.offset() >= 900 * MIB && r.offset() < 901 * MIB)
            .collect();
        // 3 full days × 16 requests per run
        assert_eq!(job_reqs.len(), 3 * 16);
        // each run covers the whole region sequentially
        let day0: Vec<_> = job_reqs
            .iter()
            .filter(|r| r.ts().day_index() == 0)
            .collect();
        assert_eq!(day0.len(), 16);
        assert!(day0.windows(2).all(|w| w[1].offset() == w[0].end_offset()));
        // runs are 24h apart on the same blocks
        let first_of_day: Vec<_> = job_reqs
            .iter()
            .filter(|r| r.offset() == 900 * MIB)
            .collect();
        assert_eq!(first_of_day.len(), 3);
        let gap = first_of_day[1].ts() - first_of_day[0].ts();
        assert_eq!(gap, TimeDelta::from_hours(24));
        // the merged stream stays sorted
        assert!(reqs.windows(2).all(|w| w[0].ts() <= w[1].ts()));
    }

    #[test]
    fn corpus_combines_volumes() {
        let corpus = CorpusGenerator::new(vec![profile(0, 1), profile(1, 2), profile(7, 3)])
            .expect("valid profiles");
        assert_eq!(corpus.profiles().len(), 3);
        let trace = corpus.generate();
        assert_eq!(trace.volume_count(), 3);
        let ids: Vec<u32> = trace.volume_ids().map(|v| v.get()).collect();
        assert_eq!(ids, vec![0, 1, 7]);
        // per-volume generation matches the combined trace
        let v7 = corpus.generate_volume(2).expect("in range");
        assert_eq!(
            trace.volume(VolumeId::new(7)).unwrap().requests(),
            v7.as_slice()
        );
        assert_eq!(corpus.generate_volume(3), None);
    }

    #[test]
    fn iter_matches_generate_exactly() {
        // The lazy stream must replicate the batch output bit-for-bit:
        // plain profile, background-free profile, and a profile with
        // daily rewrites (exercising the three-way merge).
        for seed in [1, 7, 42, 31] {
            let plain = profile(2, seed);
            let mut no_bg = profile(3, seed);
            no_bg.arrival.background_fraction = 0.0;
            let mut rewriting = profile(4, seed);
            rewriting.live_end = Timestamp::from_days(2);
            rewriting.daily_rewrite = Some(DailyRewrite {
                at_hour: 1.0,
                region_start: 800 * MIB,
                region_len: MIB,
                request_size: 128 * 1024,
                gap_us: 250,
            });
            for p in [plain, no_bg, rewriting] {
                let generator = VolumeGenerator::new(p).expect("valid profile");
                let eager = generator.generate();
                let lazy: Vec<IoRequest> = generator.iter().collect();
                assert_eq!(eager, lazy, "seed {seed}");
            }
        }
    }

    #[test]
    fn iter_matches_generate_with_overlapping_rewrite_runs() {
        // A rewrite run long enough to cross the next day's run start:
        // the batch path handles this via a stable sort, the lazy path
        // via run-priority merging — they must still agree.
        let mut p = profile(5, 9);
        p.live_end = Timestamp::from_days(3);
        p.daily_rewrite = Some(DailyRewrite {
            at_hour: 23.5,
            region_start: 700 * MIB,
            region_len: 4 * MIB,
            request_size: 4096,
            // 1024 requests/run × 2s gap ≈ 34 min > the 30 min left in
            // the day, so each run spills into the next day.
            gap_us: 2_000_000,
        });
        let generator = VolumeGenerator::new(p).expect("valid profile");
        let eager = generator.generate();
        let lazy: Vec<IoRequest> = generator.iter().collect();
        assert_eq!(eager, lazy);
    }

    #[test]
    fn corpus_stream_matches_generate() {
        let corpus = CorpusGenerator::new(vec![profile(0, 1), profile(1, 2), profile(7, 3)])
            .expect("valid profiles");
        let trace = corpus.generate();
        let streamed: Vec<IoRequest> = corpus.stream().collect();
        assert_eq!(streamed.len(), trace.request_count());
        // Globally time-ordered...
        assert!(streamed.windows(2).all(|w| w[0].ts() <= w[1].ts()));
        // ...first element carries the batch trace's epoch...
        assert_eq!(streamed[0].ts(), trace.start().unwrap());
        // ...and rebuilding a trace from the stream reproduces the
        // batch trace exactly (volume-major layout included).
        let rebuilt = cbs_trace::Trace::from_requests(streamed);
        assert_eq!(rebuilt.requests(), trace.requests());
    }

    #[test]
    fn rejects_invalid_profile() {
        let mut p = profile(0, 1);
        p.write_fraction = 2.0;
        let err = VolumeGenerator::new(p.clone()).unwrap_err();
        assert!(err.message().contains("write_fraction"), "{err}");
        let err = CorpusGenerator::new(vec![profile(1, 1), p]).unwrap_err();
        assert!(err.message().contains("volume vol-0"), "{err}");
    }
}

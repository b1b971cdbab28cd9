//! In-memory trace container: [`Trace`] and [`VolumeView`].

use std::ops::Range;

use crate::iter::{is_sorted_by_time, MergeByTime};
use crate::{IoRequest, TimeDelta, Timestamp, VolumeId};

/// An in-memory trace: requests grouped by volume, each volume's
/// requests sorted by timestamp.
///
/// Every analysis in the workbench is defined per volume first and
/// aggregated per corpus second (exactly the paper's methodology), so the
/// canonical layout is *volume-major*: one contiguous, time-sorted run of
/// requests per volume. A globally time-ordered view is available through
/// [`Trace::iter_time_ordered`] when needed.
///
/// # Example
///
/// ```
/// use cbs_trace::{IoRequest, OpKind, Timestamp, Trace, VolumeId};
///
/// let mk = |v: u32, us: u64| {
///     IoRequest::new(VolumeId::new(v), OpKind::Write, 0, 4096, Timestamp::from_micros(us))
/// };
/// let trace = Trace::from_requests(vec![mk(1, 20), mk(0, 10), mk(1, 5)]);
/// assert_eq!(trace.volume_count(), 2);
/// assert_eq!(trace.request_count(), 3);
/// let v1 = trace.volume(VolumeId::new(1)).unwrap();
/// assert_eq!(v1.requests().len(), 2);
/// assert_eq!(v1.requests()[0].ts().as_micros(), 5); // time-sorted
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Volume-major storage: all requests of a volume are contiguous and
    /// time-sorted.
    requests: Vec<IoRequest>,
    /// Per-volume ranges into `requests`, sorted by volume id.
    index: Vec<(VolumeId, Range<usize>)>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a trace from requests in any order.
    ///
    /// Requests are sorted by `(volume, timestamp)`; the sort is stable,
    /// so records with equal keys keep their input order. Input that is
    /// already in volume-major time order (e.g. the output of
    /// [`Trace::requests`] or a per-volume generator) is detected with
    /// one linear scan and not re-sorted.
    pub fn from_requests(mut requests: Vec<IoRequest>) -> Self {
        let sorted = requests
            .windows(2)
            .all(|w| (w[0].volume(), w[0].ts()) <= (w[1].volume(), w[1].ts()));
        if !sorted {
            requests.sort_by_key(|r| (r.volume(), r.ts()));
        }
        let mut index: Vec<(VolumeId, Range<usize>)> = Vec::new();
        for (i, req) in requests.iter().enumerate() {
            match index.last_mut() {
                Some((vol, range)) if *vol == req.volume() => range.end = i + 1,
                _ => index.push((req.volume(), i..i + 1)),
            }
        }
        Trace { requests, index }
    }

    /// Builds a trace from a fallible record stream (e.g. a codec
    /// reader), stopping at the first error.
    ///
    /// # Errors
    ///
    /// Propagates the first error produced by the stream.
    pub fn from_records<I, E>(records: I) -> Result<Self, E>
    where
        I: IntoIterator<Item = Result<IoRequest, E>>,
    {
        let requests = records.into_iter().collect::<Result<Vec<_>, E>>()?;
        Ok(Self::from_requests(requests))
    }

    /// Total number of requests.
    pub fn request_count(&self) -> usize {
        self.requests.len()
    }

    /// Returns `true` if the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Number of distinct volumes.
    pub fn volume_count(&self) -> usize {
        self.index.len()
    }

    /// The ids of all volumes, ascending.
    pub fn volume_ids(&self) -> impl Iterator<Item = VolumeId> + '_ {
        self.index.iter().map(|(v, _)| *v)
    }

    /// Returns the view of one volume, or `None` if it has no requests.
    pub fn volume(&self, id: VolumeId) -> Option<VolumeView<'_>> {
        let pos = self.index.binary_search_by_key(&id, |(v, _)| *v).ok()?;
        let (vol, range) = &self.index[pos];
        Some(VolumeView {
            id: *vol,
            requests: &self.requests[range.clone()],
        })
    }

    /// Iterates over per-volume views, ascending by volume id.
    pub fn volumes(&self) -> impl Iterator<Item = VolumeView<'_>> + '_ {
        self.index.iter().map(|(v, range)| VolumeView {
            id: *v,
            requests: &self.requests[range.clone()],
        })
    }

    /// All requests in volume-major order.
    pub fn requests(&self) -> &[IoRequest] {
        &self.requests
    }

    /// Iterates over all requests in global timestamp order
    /// (k-way merging the per-volume runs).
    pub fn iter_time_ordered(&self) -> impl Iterator<Item = IoRequest> + '_ {
        let sources: Vec<_> = self
            .volumes()
            .map(|v| v.requests().iter().copied())
            .collect();
        MergeByTime::new(sources)
    }

    /// The earliest timestamp in the trace, if non-empty.
    pub fn start(&self) -> Option<Timestamp> {
        self.volumes().filter_map(|v| v.start()).min()
    }

    /// The latest timestamp in the trace, if non-empty.
    pub fn end(&self) -> Option<Timestamp> {
        self.volumes().filter_map(|v| v.end()).max()
    }

    /// The elapsed time between the first and last request, if non-empty.
    pub fn span(&self) -> Option<TimeDelta> {
        Some(self.end()? - self.start()?)
    }
}

impl FromIterator<IoRequest> for Trace {
    fn from_iter<I: IntoIterator<Item = IoRequest>>(iter: I) -> Self {
        Trace::from_requests(iter.into_iter().collect())
    }
}

impl Extend<IoRequest> for Trace {
    fn extend<I: IntoIterator<Item = IoRequest>>(&mut self, iter: I) {
        let mut requests = std::mem::take(&mut self.requests);
        requests.extend(iter);
        *self = Trace::from_requests(requests);
    }
}

/// A borrowed view of one volume's time-sorted requests.
#[derive(Debug, Clone, Copy)]
pub struct VolumeView<'a> {
    id: VolumeId,
    requests: &'a [IoRequest],
}

impl<'a> VolumeView<'a> {
    /// Creates a view over externally managed requests.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is not sorted by timestamp or if any request
    /// targets a different volume than `id`.
    pub fn new(id: VolumeId, requests: &'a [IoRequest]) -> Self {
        assert!(
            is_sorted_by_time(requests),
            "volume view requires time-sorted requests"
        );
        assert!(
            requests.iter().all(|r| r.volume() == id),
            "volume view requires homogeneous volume ids"
        );
        VolumeView { id, requests }
    }

    /// The volume id.
    pub fn id(&self) -> VolumeId {
        self.id
    }

    /// The volume's requests, time-sorted.
    pub fn requests(&self) -> &'a [IoRequest] {
        self.requests
    }

    /// Returns `true` if the volume has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Timestamp of the first request.
    pub fn start(&self) -> Option<Timestamp> {
        self.requests.first().map(|r| r.ts())
    }

    /// Timestamp of the last request.
    pub fn end(&self) -> Option<Timestamp> {
        self.requests.last().map(|r| r.ts())
    }

    /// Elapsed time between first and last request.
    pub fn span(&self) -> Option<TimeDelta> {
        Some(self.end()? - self.start()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpKind;

    fn mk(v: u32, us: u64) -> IoRequest {
        IoRequest::new(
            VolumeId::new(v),
            OpKind::Read,
            u64::from(v) * 1000,
            512,
            Timestamp::from_micros(us),
        )
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.volume_count(), 0);
        assert_eq!(t.start(), None);
        assert_eq!(t.end(), None);
        assert_eq!(t.span(), None);
        assert_eq!(t.iter_time_ordered().count(), 0);
    }

    #[test]
    fn groups_by_volume_and_sorts_by_time() {
        let t = Trace::from_requests(vec![mk(1, 30), mk(0, 20), mk(1, 10), mk(0, 40)]);
        assert_eq!(t.volume_count(), 2);
        let ids: Vec<_> = t.volume_ids().collect();
        assert_eq!(ids, vec![VolumeId::new(0), VolumeId::new(1)]);
        let v1 = t.volume(VolumeId::new(1)).unwrap();
        assert_eq!(
            v1.requests()
                .iter()
                .map(|r| r.ts().as_micros())
                .collect::<Vec<_>>(),
            vec![10, 30]
        );
        assert_eq!(v1.id(), VolumeId::new(1));
        assert_eq!(v1.len(), 2);
        assert!(!v1.is_empty());
    }

    #[test]
    fn presorted_input_builds_identical_trace() {
        // Behavior preservation for the is-sorted fast path: shuffled
        // input and already-volume-major input produce the same trace,
        // including the stable order of duplicate (volume, ts) keys.
        let shuffled = vec![mk(1, 30), mk(0, 20), mk(1, 10), mk(0, 40), mk(1, 10)];
        let a = Trace::from_requests(shuffled);
        let b = Trace::from_requests(a.requests().to_vec());
        assert_eq!(a.requests(), b.requests());
        assert_eq!(
            a.volume_ids().collect::<Vec<_>>(),
            b.volume_ids().collect::<Vec<_>>()
        );
        for v in a.volume_ids() {
            assert_eq!(
                a.volume(v).unwrap().requests(),
                b.volume(v).unwrap().requests()
            );
        }
    }

    #[test]
    fn missing_volume_is_none() {
        let t = Trace::from_requests(vec![mk(0, 1)]);
        assert!(t.volume(VolumeId::new(5)).is_none());
    }

    #[test]
    fn time_ordered_iteration() {
        let t = Trace::from_requests(vec![mk(1, 30), mk(0, 20), mk(1, 10), mk(0, 40)]);
        let times: Vec<_> = t.iter_time_ordered().map(|r| r.ts().as_micros()).collect();
        assert_eq!(times, vec![10, 20, 30, 40]);
    }

    #[test]
    fn start_end_span() {
        let t = Trace::from_requests(vec![mk(1, 30), mk(0, 5), mk(2, 77)]);
        assert_eq!(t.start(), Some(Timestamp::from_micros(5)));
        assert_eq!(t.end(), Some(Timestamp::from_micros(77)));
        assert_eq!(t.span(), Some(TimeDelta::from_micros(72)));
    }

    #[test]
    fn from_records_propagates_errors() {
        let ok: Vec<Result<IoRequest, String>> = vec![Ok(mk(0, 1)), Ok(mk(0, 2))];
        assert_eq!(Trace::from_records(ok).unwrap().request_count(), 2);
        let bad: Vec<Result<IoRequest, String>> = vec![Ok(mk(0, 1)), Err("bad".to_owned())];
        assert_eq!(Trace::from_records(bad).unwrap_err(), "bad");
    }

    #[test]
    fn collect_and_extend() {
        let mut t: Trace = vec![mk(0, 2), mk(1, 1)].into_iter().collect();
        assert_eq!(t.request_count(), 2);
        t.extend(vec![mk(0, 1), mk(2, 9)]);
        assert_eq!(t.request_count(), 4);
        assert_eq!(t.volume_count(), 3);
        let v0 = t.volume(VolumeId::new(0)).unwrap();
        assert_eq!(v0.requests()[0].ts().as_micros(), 1);
    }

    #[test]
    fn volume_view_validation() {
        let reqs = vec![mk(3, 1), mk(3, 2)];
        let view = VolumeView::new(VolumeId::new(3), &reqs);
        assert_eq!(view.span(), Some(TimeDelta::from_micros(1)));
    }

    #[test]
    #[should_panic(expected = "time-sorted")]
    fn volume_view_rejects_unsorted() {
        let reqs = vec![mk(3, 2), mk(3, 1)];
        let _ = VolumeView::new(VolumeId::new(3), &reqs);
    }

    #[test]
    #[should_panic(expected = "homogeneous")]
    fn volume_view_rejects_mixed_volumes() {
        let reqs = vec![mk(3, 1), mk(4, 2)];
        let _ = VolumeView::new(VolumeId::new(3), &reqs);
    }
}

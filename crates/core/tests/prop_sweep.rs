//! Differential suite for the class replay: on random record streams,
//! `TraceClassifier::sweep_proc` gives exactly the phase ids of replaying
//! each grid point on its own through a `FootprintTable` that stores the
//! signatures themselves — in BBV, BBV+DDV and externally supplied DDS
//! modes, across exact distance ties, tiny tables that evict on nearly
//! every interval, thresholds of 0 and above 2, grids whose DDS columns
//! hold many thresholds (duplicated and out of order, so classes split
//! repeatedly), all-zero DDS, NaN DDS values, NaN and infinite DDS
//! thresholds, empty intervals (all-zero bucket counts), and BBVs of 4
//! lanes and of the 32 lanes the real accumulator has (so whole groups of
//! the sweep's distance kernel run, not only its remainder). Records hold
//! bucket counts, which always normalize to finite rows; a NaN lane is
//! written into the replayed rows themselves, since the sweep takes any
//! rows.
//!
//! The distance is one more input: the same records also replay as a
//! scalar stream under `relative_diff` (the branch-count baseline, NaN
//! values included) and as a word-signature stream under the relative
//! signature distance (the working-set baseline, empty signatures
//! included), each against a per-point `FootprintTable::classify_with`
//! replay.

use std::borrow::Borrow;

use proptest::prelude::*;

use dsm_phase::detector::{DetectorMode, IntervalRecord, Thresholds, TraceClassifier};
use dsm_phase::distance::{manhattan_rows, relative_diff, rowwise};
use dsm_phase::footprint::FootprintTable;
use dsm_phase::working_set::rel_distance;

/// BBV lengths the streams are drawn at: a short one, and the paper's
/// accumulator width.
const BBV_LENS: [usize; 2] = [4, 32];

fn record(index: usize, bbv: Vec<u32>, dds: f64) -> IntervalRecord {
    IntervalRecord::new(0, index as u64, 100, 150, bbv, [], [], dds, &[], 1)
}

/// Bucket counts for random lanes in `(0, 1)`.
fn counts(raw: &[f64]) -> Vec<u32> {
    raw.iter().map(|x| (x * 1000.0).round() as u32).collect()
}

/// One grid point replayed alone, storing each entry's BBV (record `i`'s
/// row of `rows`): the phase ids and the footprint entries the replay
/// looked at.
fn replay(
    records: &[IntervalRecord],
    rows: &[f64],
    dds: Option<&[f64]>,
    (bbv_thr, dds_thr): (f64, Option<f64>),
    capacity: usize,
) -> (Vec<u32>, u64) {
    let width = rows.len() / records.len().max(1);
    let mut table: FootprintTable = FootprintTable::new(capacity);
    let ids = records
        .iter()
        .zip(rows.chunks(width.max(1)))
        .enumerate()
        .map(|(i, (r, row))| {
            let d = dds.map_or(r.dds, |dds| dds[i]);
            table.classify(row, d, bbv_thr, dds_thr).phase_id
        })
        .collect();
    (ids, table.comparisons())
}

/// One grid point replayed alone through `FootprintTable::classify_with`
/// under the one-pair `distance`, storing each entry's signature: the
/// phase ids and the footprint entries the replay looked at.
fn replay_with<T: Clone + Default>(
    stream: &[(T, f64)],
    distance: impl Fn(&T, &T) -> f64,
    (thr, dds_thr): (f64, Option<f64>),
    capacity: usize,
) -> (Vec<u32>, u64) {
    let mut table: FootprintTable<T> = FootprintTable::new(capacity);
    let ids = stream
        .iter()
        .map(|(sig, dds)| {
            let sig_distance = |stored: &T| distance(sig, stored);
            table
                .classify_with(sig_distance, *dds, thr, dds_thr, |_| sig.clone())
                .phase_id
        })
        .collect();
    (ids, table.comparisons())
}

/// `sweep_proc` over `stream` under `batched` agrees with `replay_with`
/// under `distance` at every point of `grid`.
fn sweep_matches_replay<S: ?Sized, T: Borrow<S> + Clone + Default>(
    stream: &[(T, f64)],
    batched: impl FnMut(&S, &[&S], &mut [f64]),
    distance: impl Fn(&T, &T) -> f64 + Copy,
    grid: &[(f64, Option<f64>)],
    capacity: usize,
) {
    let refs = stream.iter().map(|(sig, dds)| (sig.borrow(), *dds));
    let swept = TraceClassifier::sweep_proc(refs, batched, grid, capacity);
    prop_assert_eq!(swept.class_of.len(), grid.len());
    let mut per_point = 0;
    for (&class, &point) in swept.class_of.iter().zip(grid) {
        let (want, comparisons) = replay_with(stream, distance, point, capacity);
        prop_assert_eq!(&swept.classes[class], &want, "point {:?}", point);
        per_point += comparisons;
    }
    // Each class stands for at least one point's identical table.
    prop_assert!(swept.comparisons <= per_point);
}

/// The branch-count signature of a random lane: a whole count, or NaN.
fn count_of(raw: &[f64]) -> f64 {
    if raw[1] > 0.95 {
        f64::NAN
    } else {
        (raw[0] * 1000.0).round()
    }
}

/// A two-word working-set signature of a random lane: sparse bits, so
/// signatures overlap, and empty whenever no lane clears the cut.
fn words_of(raw: &[f64]) -> Vec<u64> {
    let word = |cut: f64, shift: usize| {
        raw.iter()
            .enumerate()
            .filter(|&(_, &x)| x > cut)
            .fold(0u64, |w, (k, _)| w | 1 << ((k * 5 + shift) % 64))
    };
    vec![word(0.8, 0), word(0.9, 3)]
}

/// A record stream drawn from a small palette of bucket counts (so
/// distances tie exactly) mixed with fresh random ones and empty
/// intervals, and the rows the sweep replays: the records' normalized BBVs,
/// with a NaN written into one lane when `nan_at` says so.
fn stream(
    palette: &[Vec<u32>],
    picks: &[(usize, Vec<f64>, f64)],
    zero_dds: bool,
    nan_at: Option<(usize, usize)>,
    len: usize,
) -> (Vec<IntervalRecord>, Vec<f64>) {
    let records: Vec<IntervalRecord> = picks
        .iter()
        .enumerate()
        .map(|(i, (pick, raw, dds))| {
            let bbv = match palette.get(*pick) {
                Some(p) => p.clone(),
                None if *pick == 7 => vec![0; len],
                None => counts(&raw[..len]),
            };
            record(i, bbv, if zero_dds { 0.0 } else { *dds })
        })
        .collect();
    let mut rows = TraceClassifier::bbv_rows(&records);
    if let Some((at, lane)) = nan_at {
        rows[(at % records.len()) * len + lane % len] = f64::NAN;
    }
    (records, rows)
}

fn bbv_thresholds() -> impl Strategy<Value = f64> {
    prop::sample::select(vec![0.0, 1e-3, 0.05, 0.2, 0.5, 1.0, 1.9, 2.0, 2.5, 4.0])
}

fn dds_thresholds() -> impl Strategy<Value = Option<f64>> {
    prop::sample::select(vec![
        None,
        Some(0.0),
        Some(0.05),
        Some(0.3),
        Some(1.0),
        Some(1.5),
        Some(f64::INFINITY),
        Some(f64::NAN),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn sweep_matches_per_point_replay(
        len in prop::sample::select(BBV_LENS.to_vec()),
        palette_raw in prop::collection::vec(prop::collection::vec(0.01f64..1.0, BBV_LENS[1]), 1..5),
        picks in prop::collection::vec(
            (
                0usize..8,
                prop::collection::vec(0.01f64..1.0, BBV_LENS[1]),
                prop::sample::select(vec![0.0, 1.0, 1.2, 5.0, 40.0, f64::NAN]),
            ),
            1..80,
        ),
        grid in prop::collection::vec((bbv_thresholds(), dds_thresholds()), 1..40),
        capacity in prop::sample::select(vec![1usize, 2, 3, 32]),
        zero_dds in any::<bool>(),
        nan_at in prop::option::of((0usize..80, 0usize..BBV_LENS[1])),
        external in prop::collection::vec(
            prop::sample::select(vec![0.0, 2.0, 2.1, 9.0, f64::NAN]),
            80,
        ),
    ) {
        let palette: Vec<Vec<u32>> = palette_raw.iter().map(|p| counts(&p[..len])).collect();
        let (records, rows) = stream(&palette, &picks, zero_dds, nan_at, len);
        let external = &external[..records.len()];

        // Records' own DDS (BBV points where the DDS gate is `None`,
        // BBV+DDV points elsewhere), then an externally supplied DDS.
        for dds in [None, Some(external)] {
            let swept = TraceClassifier::sweep_proc(
                TraceClassifier::bbv_stream(&records, &rows, dds),
                manhattan_rows,
                &grid,
                capacity,
            );
            prop_assert_eq!(swept.class_of.len(), grid.len());
            let mut per_point = 0;
            for (&class, &point) in swept.class_of.iter().zip(&grid) {
                let (want, comparisons) = replay(&records, &rows, dds, point, capacity);
                prop_assert_eq!(&swept.classes[class], &want, "point {:?}", point);
                per_point += comparisons;
            }
            // Each class stands for at least one point's identical table.
            prop_assert!(swept.comparisons <= per_point);

            // The same records as branch counts and as working sets, drawn
            // from the palette where their BBVs are (so distances tie).
            let lanes: Vec<(&[f64], f64)> = picks
                .iter()
                .enumerate()
                .map(|(i, (pick, raw, _))| {
                    let raw = palette_raw.get(*pick).unwrap_or(raw);
                    (raw.as_slice(), dds.map_or(records[i].dds, |d| d[i]))
                })
                .collect();
            let counts: Vec<(f64, f64)> =
                lanes.iter().map(|&(raw, d)| (count_of(raw), d)).collect();
            sweep_matches_replay(
                &counts,
                rowwise(|a: &f64, b: &f64| relative_diff(*a, *b)),
                |a: &f64, b: &f64| relative_diff(*a, *b),
                &grid,
                capacity,
            );
            let words: Vec<(Vec<u64>, f64)> =
                lanes.iter().map(|&(raw, d)| (words_of(raw), d)).collect();
            sweep_matches_replay(
                &words,
                rowwise(rel_distance),
                |a: &Vec<u64>, b: &Vec<u64>| rel_distance(a, b),
                &grid,
                capacity,
            );
        }

        // The one-point entry points, which normalize the records' counts
        // themselves, agree with the same replay of the rows without NaN.
        let (bbv, dds) = grid[0];
        let thr = Thresholds { bbv, dds: dds.unwrap_or(0.5) };
        let rows = TraceClassifier::bbv_rows(&records);
        prop_assert_eq!(
            TraceClassifier::classify_proc(&records, DetectorMode::Bbv, thr, capacity),
            replay(&records, &rows, None, (bbv, None), capacity).0
        );
        prop_assert_eq!(
            TraceClassifier::classify_proc(&records, DetectorMode::BbvDdv, thr, capacity),
            replay(&records, &rows, None, (bbv, Some(thr.dds)), capacity).0
        );
        prop_assert_eq!(
            TraceClassifier::classify_proc_with_dds(&records, external, thr, capacity),
            replay(&records, &rows, Some(external), (bbv, Some(thr.dds)), capacity).0
        );
    }
}

/// NaN behaviour, pinned identically in both paths: a NaN distance is
/// never nearest, so a stored NaN signature matches no later interval and
/// a NaN query matches no resident entry — each allocates a phase of its
/// own.
#[test]
fn nan_lane_behaviour_is_pinned_in_both_paths() {
    let a = vec![7, 1, 1, 1];
    let b = vec![1, 7, 1, 1];
    let grid = [(0.1, None), (0.1, Some(0.5))];
    // Records `a`/`b` in `order`, with a NaN written into lane 2 of row
    // `nan`, which is otherwise `a`.
    let with_nan = |order: [&Vec<u32>; 4], nan: usize| {
        let records: Vec<IntervalRecord> =
            order.into_iter().enumerate().map(|(i, v)| record(i, v.clone(), 1.0)).collect();
        let mut rows = TraceClassifier::bbv_rows(&records);
        rows[nan * 4 + 2] = f64::NAN;
        (records, rows)
    };

    let (stored_nan, rows) = with_nan([&a, &a, &b, &a], 0);
    let stream = TraceClassifier::bbv_stream(&stored_nan, &rows, None);
    let swept = TraceClassifier::sweep_proc(stream, manhattan_rows, &grid, 32);
    for (&class, &point) in swept.class_of.iter().zip(&grid) {
        assert_eq!(swept.classes[class], [0, 1, 2, 1]);
        assert_eq!(swept.classes[class], replay(&stored_nan, &rows, None, point, 32).0);
    }

    let (nan_query, rows) = with_nan([&b, &a, &a, &b], 2);
    let stream = TraceClassifier::bbv_stream(&nan_query, &rows, None);
    let swept = TraceClassifier::sweep_proc(stream, manhattan_rows, &grid, 32);
    for (&class, &point) in swept.class_of.iter().zip(&grid) {
        assert_eq!(swept.classes[class], [0, 1, 2, 0]);
        assert_eq!(swept.classes[class], replay(&nan_query, &rows, None, point, 32).0);
    }
}

#[test]
fn empty_stream_and_empty_grid() {
    let stream = TraceClassifier::bbv_stream(&[], &[], None);
    let swept = TraceClassifier::sweep_proc(stream, manhattan_rows, &[(0.5, None)], 4);
    assert_eq!(swept.classes, vec![Vec::<u32>::new()]);
    assert_eq!(swept.class_of, vec![0]);
    let records = vec![record(0, vec![1, 0, 0, 0], 0.0)];
    let rows = TraceClassifier::bbv_rows(&records);
    let stream = TraceClassifier::bbv_stream(&records, &rows, None);
    let swept = TraceClassifier::sweep_proc(stream, manhattan_rows, &[], 4);
    assert!(swept.classes.is_empty() && swept.class_of.is_empty());
}

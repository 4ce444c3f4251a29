//! Dynamic Time Warping.
//!
//! DTW aligns a reference phase profile with a measured one even when the
//! measured profile has been stretched or compressed by uneven reader
//! movement. Three variants are provided:
//!
//! * [`dtw_full`] — the classic `O(M·N)` alignment over raw sample values,
//! * [`dtw_subsequence`] — open-begin / open-end alignment that locates the
//!   (short) reference *inside* a longer measured profile, which is exactly
//!   the paper's "find where the V-zone appears in the measured phase
//!   profile" problem,
//! * [`dtw_segmented`] — the paper's optimisation: alignment over the
//!   segment representations, with the segment-range distance and
//!   the `min(s^T_P, s^T_Q)` time weighting from Section 3.1.2, reducing
//!   the complexity to `O(M·N / w²)`.
//!
//! ## The fast path
//!
//! Every variant is a thin wrapper around one banded, scratch-backed
//! kernel. Two orthogonal optimisations sit on top of the textbook
//! recurrence:
//!
//! * **Sakoe-Chiba banding** (`band = Some(width)`): in full-sequence mode
//!   cells farther than `width` from the (slope-adjusted) diagonal are
//!   never computed; in subsequence mode — where the match may start
//!   anywhere along the measured axis, so there is no single diagonal —
//!   the band prunes the left triangle of cells that no start column
//!   could reach within the allowed net up-moves (a path at cell `(i, j)`
//!   starting from column `s ≥ 0` has accumulated warp `(j − i) − s ≥
//!   −i + j`). The allowance is `width` plus the minimal warp a longer
//!   reference forces (`max(0, N − M)` net up-moves), so the band never
//!   renders a feasible alignment infeasible in subsequence mode.
//!   `band = None` is the exact algorithm. In full mode a too-narrow band
//!   can make the alignment infeasible, in which case the functions
//!   return `None`.
//! * **[`DtwScratch`] reuse**: all DP state (accumulated costs, move tags,
//!   per-cell path starts, the traced path, and flattened segment
//!   features) lives in a caller-owned arena, so repeated alignments —
//!   e.g. the 8 offset candidates × hundreds of tags in the localization
//!   hot path — perform no heap allocation after the first call at a
//!   given problem size.
//!
//! The scratch entry point [`dtw_segmented_into`] also supports *early
//! abandoning*: because local costs and gap penalties are non-negative,
//! the minimum accumulated cost in a row is a lower bound on the final
//! cost, and an alignment that can no longer beat `abandon_above` is cut
//! off mid-matrix. The V-zone detector uses this to prune the offset
//! candidates that clearly lose against the best match so far.

use serde::{Deserialize, Serialize};

use crate::segment::SegmentedProfile;

/// The result of a DTW alignment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DtwResult {
    /// Total cost of the optimal warping path.
    pub cost: f64,
    /// The warping path as `(reference_index, measured_index)` pairs in
    /// non-decreasing order of both indices.
    pub path: Vec<(usize, usize)>,
}

impl DtwResult {
    /// The measured indices matched to a given reference index.
    pub fn matched_indices(&self, reference_idx: usize) -> Vec<usize> {
        self.path.iter().filter(|(r, _)| *r == reference_idx).map(|(_, m)| *m).collect()
    }

    /// The range of measured indices matched to a reference index range
    /// `[start, end)`, or `None` if nothing matched.
    pub fn matched_range(&self, start: usize, end: usize) -> Option<std::ops::Range<usize>> {
        path_matched_range(&self.path, start..end)
    }

    /// The matched measured range of *every* reference index in a single
    /// traversal of the path. Entry `i` of the returned vector is the
    /// measured index range matched to reference index `i`, or `None` if
    /// reference index `i` never appears on the path (possible only for
    /// indices past the path's last reference index). Querying all
    /// per-segment ranges this way is `O(path + segments)` instead of the
    /// `O(segments × path)` of repeated [`matched_range`](Self::matched_range)
    /// calls.
    pub fn matched_ranges(&self) -> Vec<Option<std::ops::Range<usize>>> {
        let n = self.path.iter().map(|&(r, _)| r + 1).max().unwrap_or(0);
        let mut out: Vec<Option<std::ops::Range<usize>>> = vec![None; n];
        for &(r, m) in &self.path {
            match &mut out[r] {
                Some(range) => {
                    range.start = range.start.min(m);
                    range.end = range.end.max(m + 1);
                }
                slot => *slot = Some(m..m + 1),
            }
        }
        out
    }
}

/// The measured index range a warping path matches to the reference index
/// range `seg_range`, in one pass over the path. Shared by
/// [`DtwResult::matched_range`] and the scratch-based V-zone hot path
/// (which borrows the path from a [`DtwScratch`] instead of owning a
/// [`DtwResult`]).
pub fn path_matched_range(
    path: &[(usize, usize)],
    seg_range: std::ops::Range<usize>,
) -> Option<std::ops::Range<usize>> {
    let mut lo = usize::MAX;
    let mut hi = 0usize;
    for &(r, m) in path {
        if r >= seg_range.start && r < seg_range.end {
            lo = lo.min(m);
            hi = hi.max(m + 1);
        }
    }
    if lo == usize::MAX {
        None
    } else {
        Some(lo..hi)
    }
}

/// Move tags recorded per cell so the traceback replays exactly the
/// decisions of the forward pass.
const MOVE_NONE: u8 = 0;
const MOVE_START: u8 = 1;
const MOVE_DIAG: u8 = 2;
const MOVE_UP: u8 = 3;
const MOVE_LEFT: u8 = 4;

/// Reusable DP arena for the DTW kernel.
///
/// Buffers grow to the largest problem seen and are then reused, so a
/// warmed-up scratch performs zero heap allocations per alignment. One
/// scratch serves any number of sequential alignments; use one scratch per
/// worker thread for parallel batches.
#[derive(Debug, Default, Clone)]
pub struct DtwScratch {
    /// Accumulated-cost matrix, row-major.
    acc: Vec<f64>,
    /// Per-cell move tag (`MOVE_*`).
    moves: Vec<u8>,
    /// The traced warping path of the most recent alignment.
    path: Vec<(usize, usize)>,
    /// Flattened segment features for the profile-level segmented entry
    /// points (the bank-backed hot path brings its own, precomputed).
    ref_feat: SegmentFeatures,
    mea_feat: SegmentFeatures,
}

/// Per-segment features of a [`SegmentedProfile`] flattened into
/// structure-of-arrays form for the segmented DTW inner loop: phase range
/// bounds plus the effective (floored) time interval. Precompute these
/// once per representation — the V-zone detector's reference bank stores
/// them per offset pattern, and the measured profile's features are built
/// once per tag and shared by all 8 offset alignments.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SegmentFeatures {
    lo: Vec<f64>,
    hi: Vec<f64>,
    dur: Vec<f64>,
}

impl SegmentFeatures {
    /// Builds the features of a segmented profile.
    pub fn from_segmented(segmented: &SegmentedProfile) -> Self {
        let mut out = SegmentFeatures::default();
        out.refill(segmented);
        out
    }

    /// Clears and refills in place, reusing the buffers.
    pub fn refill(&mut self, segmented: &SegmentedProfile) {
        self.lo.clear();
        self.hi.clear();
        self.dur.clear();
        for s in segmented.segments() {
            self.lo.push(s.min_phase);
            self.hi.push(s.max_phase);
            self.dur.push(s.time_interval().max(1e-3));
        }
    }

    /// Appends one segment given its phase range `[lo, hi]` and raw time
    /// interval, applying the same `1e-3` duration floor as
    /// [`refill`](Self::refill). This is the raw-triple entry streaming
    /// callers (and property tests) use to grow a representation segment
    /// by segment.
    pub fn push(&mut self, lo: f64, hi: f64, interval_s: f64) {
        self.lo.push(lo);
        self.hi.push(hi);
        self.dur.push(interval_s.max(1e-3));
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.lo.len()
    }

    /// Whether there are no segments.
    pub fn is_empty(&self) -> bool {
        self.lo.is_empty()
    }
}

impl DtwScratch {
    /// Creates an empty scratch arena.
    pub fn new() -> Self {
        DtwScratch::default()
    }

    /// The warping path of the most recent successful alignment, as
    /// `(reference_index, measured_index)` pairs. Empty before the first
    /// alignment and after a failed one.
    pub fn path(&self) -> &[(usize, usize)] {
        &self.path
    }

    /// Materialises the most recent alignment as an owned [`DtwResult`].
    fn to_result(&self, cost: f64) -> DtwResult {
        DtwResult { cost, path: self.path.clone() }
    }

    fn ensure_matrix(&mut self, cells: usize) {
        if self.acc.len() < cells {
            self.acc.resize(cells, f64::INFINITY);
            self.moves.resize(cells, MOVE_NONE);
        }
    }
}

/// The banded DTW kernel. Fills `scratch` and returns the optimal cost, or
/// `None` when either sequence is empty, no in-band path exists, or the
/// row-minimum lower bound exceeded `abandon_above`.
///
/// See the module docs for the band semantics in full vs subsequence mode.
#[allow(clippy::too_many_arguments)] // one internal kernel, many thin wrappers
fn dtw_kernel<CR, RC, PU, PL>(
    n: usize,
    m: usize,
    cost_row: CR,
    penalty_up: PU,
    penalty_left: PL,
    subsequence: bool,
    band: Option<usize>,
    abandon_above: Option<f64>,
    scratch: &mut DtwScratch,
) -> Option<f64>
where
    CR: Fn(usize) -> RC,
    RC: Fn(usize) -> f64,
    PU: Fn(usize) -> f64,
    PL: Fn(usize) -> f64,
{
    scratch.path.clear();
    if n == 0 || m == 0 {
        return None;
    }
    scratch.ensure_matrix(n * m);
    let acc = &mut scratch.acc;
    let moves = &mut scratch.moves;
    let idx = |i: usize, j: usize| i * m + j;

    // Column range of the last row, for the endpoint scan.
    let mut last_lo = 0usize;

    if subsequence {
        // ---- subsequence mode: the localization hot path. ----
        // Any start column is allowed, so the band cannot pin a diagonal;
        // it prunes the left triangle of columns that no start could reach
        // within `band` net up-moves. All reachable cells are finite, so
        // the inner loop needs no reachability guards — a single INFINITY
        // sentinel just left of a banded row keeps the unguarded
        // `diag`/`left` reads correct on the boundary (the matrix is
        // reused dirty otherwise).
        let cost0 = cost_row(0);
        for j in 0..m {
            acc[j] = cost0(j);
            moves[j] = MOVE_START;
        }
        for i in 1..n {
            let lo = match band {
                // Budget the minimal warp a longer reference forces
                // (`n - m` net up-moves) on top of the configured band, so
                // the band never renders a feasible alignment infeasible.
                Some(b) => i.saturating_sub(b + n.saturating_sub(m)),
                None => 0,
            };
            if lo >= m {
                return None;
            }
            let row = i * m;
            let prev_row = row - m;
            if lo > 0 {
                acc[row + lo - 1] = f64::INFINITY;
            }
            let pu = penalty_up(i);
            let cost_j = cost_row(i);
            let first = {
                let diag = if lo > 0 { acc[prev_row + lo - 1] } else { f64::INFINITY };
                let up = acc[prev_row + lo] + pu;
                let (best, mv) = if diag <= up { (diag, MOVE_DIAG) } else { (up, MOVE_UP) };
                acc[row + lo] = cost_j(lo) + best;
                moves[row + lo] = mv;
                acc[row + lo]
            };
            let mut row_min = first;
            for j in lo + 1..m {
                let diag = acc[prev_row + j - 1];
                let up = acc[prev_row + j] + pu;
                let left = acc[row + j - 1] + penalty_left(j);
                let mut best = diag;
                let mut mv = MOVE_DIAG;
                if up < best {
                    best = up;
                    mv = MOVE_UP;
                }
                if left < best {
                    best = left;
                    mv = MOVE_LEFT;
                }
                let v = cost_j(j) + best;
                acc[row + j] = v;
                moves[row + j] = mv;
                if v < row_min {
                    row_min = v;
                }
            }
            if let Some(limit) = abandon_above {
                // Costs and penalties are non-negative, so the best cell
                // of this row lower-bounds every completion through it.
                if row_min > limit {
                    return None;
                }
            }
            last_lo = lo;
        }
    } else {
        // ---- full mode: Sakoe-Chiba band around the slope-adjusted
        // diagonal; cells outside a row's range are never computed, so
        // predecessors must be range-checked (the matrix is reused dirty).
        let row_range = |i: usize| -> (usize, usize) {
            match band {
                None => (0, m - 1),
                Some(b) => {
                    let center = if n > 1 { i * (m - 1) / (n - 1) } else { 0 };
                    (center.saturating_sub(b), (center + b).min(m - 1))
                }
            }
        };
        let (mut prev_lo, mut prev_hi) = row_range(0);
        let cost0 = cost_row(0);
        for j in prev_lo..=prev_hi {
            let c = cost0(j);
            if j == 0 {
                acc[0] = c;
                moves[0] = MOVE_START;
            } else {
                acc[j] = c + acc[j - 1] + penalty_left(j);
                moves[j] = MOVE_LEFT;
            }
        }
        for i in 1..n {
            let (lo, hi) = row_range(i);
            if lo > hi {
                return None;
            }
            let mut row_min = f64::INFINITY;
            let cost_j = cost_row(i);
            for j in lo..=hi {
                let mut best = f64::INFINITY;
                let mut mv = MOVE_NONE;
                if j > prev_lo && j - 1 <= prev_hi {
                    let v = acc[idx(i - 1, j - 1)];
                    if v.is_finite() {
                        best = v;
                        mv = MOVE_DIAG;
                    }
                }
                if j >= prev_lo && j <= prev_hi {
                    let v = acc[idx(i - 1, j)];
                    if v.is_finite() {
                        let v = v + penalty_up(i);
                        if v < best {
                            best = v;
                            mv = MOVE_UP;
                        }
                    }
                }
                if j > lo {
                    let v = acc[idx(i, j - 1)];
                    if v.is_finite() {
                        let v = v + penalty_left(j);
                        if v < best {
                            best = v;
                            mv = MOVE_LEFT;
                        }
                    }
                }
                let cell = idx(i, j);
                if mv == MOVE_NONE {
                    acc[cell] = f64::INFINITY;
                    moves[cell] = MOVE_NONE;
                } else {
                    acc[cell] = cost_j(j) + best;
                    moves[cell] = mv;
                    row_min = row_min.min(acc[cell]);
                }
            }
            if let Some(limit) = abandon_above {
                if row_min > limit {
                    return None;
                }
            }
            (prev_lo, prev_hi) = (lo, hi);
        }
        last_lo = prev_lo;
        if m - 1 > prev_hi {
            return None;
        }
    }

    finish_alignment(acc, moves, &mut scratch.path, n, m, subsequence, last_lo, abandon_above)
}

/// Shared tail of the DP kernels: picks the endpoint (anywhere on the last
/// reference row for subsequence alignment — the *first* minimum on ties,
/// matching the seed's `Iterator::min_by` — the corner otherwise), applies
/// the final abandon check, and replays the recorded moves back to the
/// path start.
#[allow(clippy::too_many_arguments)] // internal tail shared by two kernels
fn finish_alignment(
    acc: &[f64],
    moves: &[u8],
    path: &mut Vec<(usize, usize)>,
    n: usize,
    m: usize,
    subsequence: bool,
    last_lo: usize,
    abandon_above: Option<f64>,
) -> Option<f64> {
    let idx = |i: usize, j: usize| i * m + j;
    let end_j = if subsequence {
        let mut best_j = last_lo;
        for j in last_lo + 1..m {
            if acc[idx(n - 1, j)] < acc[idx(n - 1, best_j)] {
                best_j = j;
            }
        }
        best_j
    } else {
        m - 1
    };
    let total_cost = acc[idx(n - 1, end_j)];
    if !total_cost.is_finite() {
        return None;
    }
    if let Some(limit) = abandon_above {
        if total_cost > limit {
            return None;
        }
    }

    let mut i = n - 1;
    let mut j = end_j;
    loop {
        path.push((i, j));
        match moves[idx(i, j)] {
            MOVE_DIAG => {
                i -= 1;
                j -= 1;
            }
            MOVE_UP => i -= 1,
            MOVE_LEFT => j -= 1,
            _ => break,
        }
    }
    path.reverse();
    Some(total_cost)
}

/// Runs the kernel over raw sample values with absolute-difference local
/// cost.
fn dtw_values_into(
    reference: &[f64],
    measured: &[f64],
    subsequence: bool,
    band: Option<usize>,
    scratch: &mut DtwScratch,
) -> Option<f64> {
    dtw_kernel(
        reference.len(),
        measured.len(),
        |i| {
            let r = reference[i];
            move |j: usize| (r - measured[j]).abs()
        },
        |_| 0.0,
        |_| 0.0,
        subsequence,
        band,
        None,
        scratch,
    )
}

/// Classic full-sequence DTW over raw values with absolute-difference local
/// cost. Returns `None` if either sequence is empty.
pub fn dtw_full(reference: &[f64], measured: &[f64]) -> Option<DtwResult> {
    dtw_full_banded(reference, measured, None)
}

/// [`dtw_full`] constrained to a Sakoe-Chiba band of `band` cells around
/// the slope-adjusted diagonal (`None` = exact). Returns `None` when the
/// band admits no path; a band of at least `max(reference, measured)`
/// length is always equivalent to the exact algorithm.
pub fn dtw_full_banded(
    reference: &[f64],
    measured: &[f64],
    band: Option<usize>,
) -> Option<DtwResult> {
    let mut scratch = DtwScratch::new();
    let cost = dtw_values_into(reference, measured, false, band, &mut scratch)?;
    Some(scratch.to_result(cost))
}

/// Subsequence DTW: aligns the whole `reference` against the best-matching
/// contiguous (warped) part of `measured`. Returns `None` if either
/// sequence is empty.
pub fn dtw_subsequence(reference: &[f64], measured: &[f64]) -> Option<DtwResult> {
    dtw_subsequence_banded(reference, measured, None)
}

/// [`dtw_subsequence`] with the subsequence band semantics described in
/// the module docs (`None` = exact).
pub fn dtw_subsequence_banded(
    reference: &[f64],
    measured: &[f64],
    band: Option<usize>,
) -> Option<DtwResult> {
    let mut scratch = DtwScratch::new();
    let cost = dtw_values_into(reference, measured, true, band, &mut scratch)?;
    Some(scratch.to_result(cost))
}

/// The paper's segmented DTW: aligns two coarse segment representations
/// using the segment range distance weighted by the shorter of the two
/// segments' time intervals. With `subsequence = true` (the V-zone
/// detection use case) the reference may match anywhere inside the
/// measured representation. Path indices refer to *segments*.
pub fn dtw_segmented(
    reference: &SegmentedProfile,
    measured: &SegmentedProfile,
    subsequence: bool,
) -> Option<DtwResult> {
    dtw_segmented_with_penalty(reference, measured, subsequence, 0.0)
}

/// [`dtw_segmented`] with a non-negative *gap penalty* (radians per second
/// of warped time). Each warping step that consumes one representation
/// without advancing the other is charged `penalty · segment duration`.
/// This keeps the optimal path from collapsing the whole reference onto a
/// single wide-range measured segment — a failure mode that otherwise
/// appears when a deep multipath fade produces one segment whose phase
/// range overlaps everything.
pub fn dtw_segmented_with_penalty(
    reference: &SegmentedProfile,
    measured: &SegmentedProfile,
    subsequence: bool,
    gap_penalty_per_second: f64,
) -> Option<DtwResult> {
    dtw_segmented_banded(reference, measured, subsequence, gap_penalty_per_second, None)
}

/// [`dtw_segmented_with_penalty`] constrained to a band (`None` = exact).
pub fn dtw_segmented_banded(
    reference: &SegmentedProfile,
    measured: &SegmentedProfile,
    subsequence: bool,
    gap_penalty_per_second: f64,
    band: Option<usize>,
) -> Option<DtwResult> {
    let mut scratch = DtwScratch::new();
    let cost = dtw_segmented_into(
        reference,
        measured,
        subsequence,
        gap_penalty_per_second,
        band,
        None,
        &mut scratch,
    )?;
    Some(scratch.to_result(cost))
}

/// The zero-alloc segmented DTW entry point used by the localization hot
/// path: writes all DP state and the warping path into `scratch` (read it
/// back via [`DtwScratch::path`]) and returns only the cost.
///
/// `abandon_above` enables early abandoning: when every path prefix
/// already costs more than the given bound, the alignment is cut off and
/// `None` is returned — exactly as if the alignment had lost a comparison
/// it could no longer win.
pub fn dtw_segmented_into(
    reference: &SegmentedProfile,
    measured: &SegmentedProfile,
    subsequence: bool,
    gap_penalty_per_second: f64,
    band: Option<usize>,
    abandon_above: Option<f64>,
    scratch: &mut DtwScratch,
) -> Option<f64> {
    // Flatten the segment features so the O(M·N) inner loop touches
    // contiguous f64s instead of chasing `Segment` fields through two
    // structs per cell. Callers that precompute features (the V-zone
    // detector's bank) use `dtw_segmented_features_into` directly.
    scratch.ref_feat.refill(reference);
    scratch.mea_feat.refill(measured);
    let DtwScratch { ref_feat, mea_feat, .. } = scratch;
    let (rf, mf) = (std::mem::take(ref_feat), std::mem::take(mea_feat));
    let cost = dtw_segmented_features_into(
        &rf,
        &mf,
        subsequence,
        gap_penalty_per_second,
        band,
        abandon_above,
        scratch,
    );
    scratch.ref_feat = rf;
    scratch.mea_feat = mf;
    cost
}

/// [`dtw_segmented_into`] over pre-flattened [`SegmentFeatures`] — the
/// innermost hot-path entry: no per-call feature extraction at all. The
/// reference features come straight from the detector's reference bank
/// and the measured features are built once per tag, so the 8 offset
/// alignments of one tag share both.
#[allow(clippy::too_many_arguments)] // hot-path entry mirroring the kernel
pub fn dtw_segmented_features_into(
    reference: &SegmentFeatures,
    measured: &SegmentFeatures,
    subsequence: bool,
    gap_penalty_per_second: f64,
    band: Option<usize>,
    abandon_above: Option<f64>,
    scratch: &mut DtwScratch,
) -> Option<f64> {
    let penalty = gap_penalty_per_second.max(0.0);
    if subsequence {
        return dtw_segmented_subsequence_kernel(
            reference,
            measured,
            penalty,
            band,
            abandon_above,
            scratch,
        );
    }
    let (m_lo, m_hi, m_dur) = (&measured.lo[..], &measured.hi[..], &measured.dur[..]);
    dtw_kernel(
        reference.len(),
        measured.len(),
        |i| {
            let (r_lo, r_hi, r_dur) = (reference.lo[i], reference.hi[i], reference.dur[i]);
            move |j: usize| {
                let gap = if r_lo > m_hi[j] {
                    r_lo - m_hi[j]
                } else if m_lo[j] > r_hi {
                    m_lo[j] - r_hi
                } else {
                    0.0
                };
                r_dur.min(m_dur[j]) * gap
            }
        },
        |i| penalty * reference.dur[i],
        |j| penalty * m_dur[j],
        subsequence,
        band,
        abandon_above,
        scratch,
    )
}

/// Cost-only segmented subsequence DTW: identical arithmetic (and hence
/// bit-identical cost) to [`dtw_segmented_features_into`] with
/// `subsequence = true`, but keeps only two rolling matrix rows and
/// records no moves, so no warping path can be traced afterwards.
///
/// The V-zone detector screens every offset candidate with this variant
/// and re-runs the full path-recording alignment only for candidates that
/// actually improve on the best match so far — with a good first guess
/// that is one single full alignment per tag.
pub fn dtw_segmented_cost_only(
    reference: &SegmentFeatures,
    measured: &SegmentFeatures,
    gap_penalty_per_second: f64,
    band: Option<usize>,
    abandon_above: Option<f64>,
    scratch: &mut DtwScratch,
) -> Option<f64> {
    let penalty = gap_penalty_per_second.max(0.0);
    let n = reference.len();
    let m = measured.len();
    if n == 0 || m == 0 {
        return None;
    }
    scratch.ensure_matrix(2 * m);
    let (a, b) = scratch.acc.split_at_mut(m);
    let mut prev: &mut [f64] = a;
    let mut cur: &mut [f64] = &mut b[..m];
    let (m_lo, m_hi, m_dur) = (&measured.lo[..m], &measured.hi[..m], &measured.dur[..m]);
    let cell_cost = |r_lo: f64, r_hi: f64, r_dur: f64, j: usize| -> f64 {
        let gap = if r_lo > m_hi[j] {
            r_lo - m_hi[j]
        } else if m_lo[j] > r_hi {
            m_lo[j] - r_hi
        } else {
            0.0
        };
        r_dur.min(m_dur[j]) * gap
    };

    {
        let (r_lo, r_hi, r_dur) = (reference.lo[0], reference.hi[0], reference.dur[0]);
        for (j, slot) in prev.iter_mut().enumerate() {
            *slot = cell_cost(r_lo, r_hi, r_dur, j);
        }
    }

    let mut last_lo = 0usize;
    for i in 1..n {
        let lo = match band {
            // See `dtw_kernel`: budget the minimal warp forced by a longer
            // reference on top of the configured band.
            Some(b) => i.saturating_sub(b + n.saturating_sub(m)),
            None => 0,
        };
        if lo >= m {
            return None;
        }
        let (r_lo, r_hi, r_dur) = (reference.lo[i], reference.hi[i], reference.dur[i]);
        let pu = penalty * r_dur;
        if lo > 0 {
            cur[lo - 1] = f64::INFINITY;
        }
        let mut left = {
            let diag = if lo > 0 { prev[lo - 1] } else { f64::INFINITY };
            let up = prev[lo] + pu;
            let best = if diag <= up { diag } else { up };
            let v = cell_cost(r_lo, r_hi, r_dur, lo) + best;
            cur[lo] = v;
            v
        };
        let mut row_min = left;
        for j in lo + 1..m {
            let diag = prev[j - 1];
            let up = prev[j] + pu;
            let left_cost = left + penalty * m_dur[j];
            let mut best = diag;
            if up < best {
                best = up;
            }
            if left_cost < best {
                best = left_cost;
            }
            let v = cell_cost(r_lo, r_hi, r_dur, j) + best;
            cur[j] = v;
            left = v;
            if v < row_min {
                row_min = v;
            }
        }
        if let Some(limit) = abandon_above {
            if row_min > limit {
                return None;
            }
        }
        last_lo = lo;
        std::mem::swap(&mut prev, &mut cur);
    }

    // `prev` now holds the last computed row.
    let mut total = f64::INFINITY;
    for &v in &prev[last_lo..] {
        if v < total {
            total = v;
        }
    }
    if !total.is_finite() {
        return None;
    }
    if let Some(limit) = abandon_above {
        if total > limit {
            return None;
        }
    }
    Some(total)
}

/// Append-only, column-major evaluation of the cost-only segmented
/// subsequence DTW — the streaming counterpart of
/// [`dtw_segmented_cost_only`].
///
/// The batch kernel walks the DP table row by row (one row per
/// *reference* segment) and needs the complete measured representation up
/// front. Every cell, though, is a pure function of its three
/// predecessors, so the same table can be filled **column by column**
/// (one column per *measured* segment) while the measured profile is
/// still arriving: the tracker keeps the most recent column
/// (`n = reference.len()` values) and folds each newly completed measured
/// segment into it in `O(n)`. Because the subsequence alignment may end
/// at any measured column, the minimum over the last-row entry of every
/// appended column — maintained as a running minimum — *is* the optimal
/// subsequence cost over the measured prefix seen so far.
///
/// Cell values, the three-way minimum, and the running best are computed
/// with exactly the arithmetic (operand order included) of
/// [`dtw_segmented_cost_only`], so after `j` appends [`best`](Self::best)
/// is **bit-identical** to a batch cost-only alignment against the first
/// `j` measured segments — property-tested in this module. Two batch
/// features intentionally have no incremental counterpart:
///
/// * **Banding** (`band = Some(_)`): the subsequence band prunes cells by
///   their distance from a diagonal whose slope depends on the *final*
///   measured length, which is unknown mid-stream. The incremental kernel
///   is therefore always exact (`band = None` semantics) — which is also
///   the V-zone detector's default.
/// * **Early abandoning**: there is no competing candidate cost to
///   abandon against while streaming; callers simply stop appending when
///   they lose interest in a lane.
#[derive(Debug, Default, Clone)]
pub struct IncrementalDtwCost {
    /// The accumulated-cost column of the most recently appended measured
    /// segment (`col[i] = acc[i][j]`), length `reference.len()`.
    col: Vec<f64>,
    /// Number of measured segments appended since the last reset.
    appended: usize,
    /// Running minimum over the last-row entries of all appended columns.
    best: f64,
}

impl IncrementalDtwCost {
    /// Creates an empty incremental alignment.
    pub fn new() -> Self {
        IncrementalDtwCost { col: Vec::new(), appended: 0, best: f64::INFINITY }
    }

    /// Discards all appended measured segments, keeping the column
    /// allocation for reuse.
    pub fn reset(&mut self) {
        self.col.clear();
        self.appended = 0;
        self.best = f64::INFINITY;
    }

    /// Number of measured segments appended since the last reset.
    pub fn appended(&self) -> usize {
        self.appended
    }

    /// The optimal subsequence cost over the measured segments appended
    /// so far: bit-identical to [`dtw_segmented_cost_only`] (with
    /// `band = None`, no abandon limit) against the same measured prefix.
    /// `None` before the first append.
    pub fn best(&self) -> Option<f64> {
        if self.best.is_finite() {
            Some(self.best)
        } else {
            None
        }
    }

    /// Appends one measured segment — its phase range `[m_lo, m_hi]` and
    /// raw time interval (the `1e-3` floor of
    /// [`SegmentFeatures::refill`] is applied here, so callers pass
    /// [`Segment::time_interval`](crate::segment::Segment::time_interval)
    /// directly) — and returns the updated [`best`](Self::best).
    ///
    /// `reference` must be the same representation on every append of one
    /// stream (checked by length in debug builds); `reset` before
    /// switching references.
    pub fn append(
        &mut self,
        reference: &SegmentFeatures,
        gap_penalty_per_second: f64,
        m_lo: f64,
        m_hi: f64,
        m_interval_s: f64,
    ) -> Option<f64> {
        let n = reference.len();
        if n == 0 {
            return None;
        }
        let penalty = gap_penalty_per_second.max(0.0);
        let m_dur = m_interval_s.max(1e-3);
        let cell = |i: usize| -> f64 {
            let (r_lo, r_hi, r_dur) = (reference.lo[i], reference.hi[i], reference.dur[i]);
            let gap = if r_lo > m_hi {
                r_lo - m_hi
            } else if m_lo > r_hi {
                m_lo - r_hi
            } else {
                0.0
            };
            r_dur.min(m_dur) * gap
        };
        if self.appended == 0 {
            // First measured column: row 0 is a free subsequence start
            // (pure cell cost); rows below can only arrive from above.
            self.col.clear();
            self.col.reserve(n);
            let mut above = cell(0);
            self.col.push(above);
            for i in 1..n {
                let v = cell(i) + (above + penalty * reference.dur[i]);
                self.col.push(v);
                above = v;
            }
        } else {
            debug_assert_eq!(self.col.len(), n, "reference changed between appends");
            let pl = penalty * m_dur;
            // `diag` carries the previous column's row `i − 1` value: read
            // each old slot before overwriting it.
            let mut diag = self.col[0];
            let mut above = cell(0);
            self.col[0] = above;
            for i in 1..n {
                let left = self.col[i];
                let up = above + penalty * reference.dur[i];
                let left_cost = left + pl;
                // Same preference order as the batch kernel: diagonal,
                // then up, then left (ties keep the earlier move).
                let mut best = diag;
                if up < best {
                    best = up;
                }
                if left_cost < best {
                    best = left_cost;
                }
                let v = cell(i) + best;
                diag = left;
                self.col[i] = v;
                above = v;
            }
        }
        self.appended += 1;
        let last = self.col[n - 1];
        if last < self.best {
            self.best = last;
        }
        self.best()
    }
}

/// The specialised DP loop behind [`dtw_segmented_features_into`] in
/// subsequence mode — the innermost loop of the localization pipeline.
/// Same recurrence, move preference, and abandon rule as `dtw_kernel`;
/// the segment features stream through explicitly-sized slices (so the
/// optimiser drops the bounds checks) and the `left` neighbour is carried
/// in a register instead of re-read from the matrix.
fn dtw_segmented_subsequence_kernel(
    reference: &SegmentFeatures,
    measured: &SegmentFeatures,
    penalty: f64,
    band: Option<usize>,
    abandon_above: Option<f64>,
    scratch: &mut DtwScratch,
) -> Option<f64> {
    let n = reference.len();
    let m = measured.len();
    scratch.path.clear();
    if n == 0 || m == 0 {
        return None;
    }
    scratch.ensure_matrix(n * m);
    let acc = &mut scratch.acc;
    let moves = &mut scratch.moves;
    let (m_lo, m_hi, m_dur) = (&measured.lo[..m], &measured.hi[..m], &measured.dur[..m]);
    let cell_cost = |r_lo: f64, r_hi: f64, r_dur: f64, j: usize| -> f64 {
        let gap = if r_lo > m_hi[j] {
            r_lo - m_hi[j]
        } else if m_lo[j] > r_hi {
            m_lo[j] - r_hi
        } else {
            0.0
        };
        r_dur.min(m_dur[j]) * gap
    };

    {
        let (r_lo, r_hi, r_dur) = (reference.lo[0], reference.hi[0], reference.dur[0]);
        let row0 = &mut acc[..m];
        for (j, slot) in row0.iter_mut().enumerate() {
            *slot = cell_cost(r_lo, r_hi, r_dur, j);
        }
        moves[..m].fill(MOVE_START);
    }

    let mut last_lo = 0usize;
    for i in 1..n {
        let lo = match band {
            // See `dtw_kernel`: budget the minimal warp forced by a longer
            // reference on top of the configured band.
            Some(b) => i.saturating_sub(b + n.saturating_sub(m)),
            None => 0,
        };
        if lo >= m {
            return None;
        }
        let row = i * m;
        let (before, after) = acc.split_at_mut(row);
        let prev = &before[row - m..][..m];
        let cur = &mut after[..m];
        let mrow = &mut moves[row..][..m];
        let (r_lo, r_hi, r_dur) = (reference.lo[i], reference.hi[i], reference.dur[i]);
        let pu = penalty * r_dur;
        if lo > 0 {
            cur[lo - 1] = f64::INFINITY;
        }
        let mut left = {
            let diag = if lo > 0 { prev[lo - 1] } else { f64::INFINITY };
            let up = prev[lo] + pu;
            let (best, mv) = if diag <= up { (diag, MOVE_DIAG) } else { (up, MOVE_UP) };
            let v = cell_cost(r_lo, r_hi, r_dur, lo) + best;
            cur[lo] = v;
            mrow[lo] = mv;
            v
        };
        let mut row_min = left;
        for j in lo + 1..m {
            let diag = prev[j - 1];
            let up = prev[j] + pu;
            let left_cost = left + penalty * m_dur[j];
            let mut best = diag;
            let mut mv = MOVE_DIAG;
            if up < best {
                best = up;
                mv = MOVE_UP;
            }
            if left_cost < best {
                best = left_cost;
                mv = MOVE_LEFT;
            }
            let v = cell_cost(r_lo, r_hi, r_dur, j) + best;
            cur[j] = v;
            mrow[j] = mv;
            left = v;
            if v < row_min {
                row_min = v;
            }
        }
        if let Some(limit) = abandon_above {
            if row_min > limit {
                return None;
            }
        }
        last_lo = lo;
    }

    finish_alignment(acc, moves, &mut scratch.path, n, m, true, last_lo, abandon_above)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::PhaseProfile;

    fn assert_monotone(path: &[(usize, usize)]) {
        for w in path.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
            let step = (w[1].0 - w[0].0) + (w[1].1 - w[0].1);
            assert!((1..=2).contains(&step), "invalid step {:?} -> {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn identical_sequences_align_diagonally_with_zero_cost() {
        let s = vec![0.0, 1.0, 2.0, 3.0, 2.0, 1.0];
        let r = dtw_full(&s, &s).unwrap();
        assert!(r.cost.abs() < 1e-12);
        assert_eq!(r.path.len(), s.len());
        for (k, &(i, j)) in r.path.iter().enumerate() {
            assert_eq!(i, k);
            assert_eq!(j, k);
        }
    }

    #[test]
    fn time_stretched_sequence_still_matches_with_low_cost() {
        // The measured profile is the reference with every sample doubled
        // (movement at half speed). DTW absorbs the stretch at zero cost.
        let reference = vec![0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0];
        let measured: Vec<f64> = reference.iter().flat_map(|&v| [v, v]).collect();
        let r = dtw_full(&reference, &measured).unwrap();
        assert!(r.cost.abs() < 1e-12);
        assert_monotone(&r.path);
    }

    #[test]
    fn path_endpoints_cover_both_sequences_in_full_mode() {
        let a = vec![0.0, 0.5, 1.0, 0.5];
        let b = vec![0.0, 1.0, 0.0];
        let r = dtw_full(&a, &b).unwrap();
        assert_eq!(*r.path.first().unwrap(), (0, 0));
        assert_eq!(*r.path.last().unwrap(), (a.len() - 1, b.len() - 1));
        assert_monotone(&r.path);
    }

    #[test]
    fn empty_inputs_give_none() {
        assert!(dtw_full(&[], &[1.0]).is_none());
        assert!(dtw_full(&[1.0], &[]).is_none());
        assert!(dtw_subsequence(&[], &[]).is_none());
    }

    #[test]
    fn subsequence_finds_embedded_pattern() {
        // A V-shaped pattern embedded in the middle of a longer noisy-ish
        // sequence; subsequence DTW must locate it.
        let pattern = vec![3.0, 2.0, 1.0, 0.5, 1.0, 2.0, 3.0];
        let mut haystack = vec![5.0; 20];
        let offset = 8;
        for (k, &v) in pattern.iter().enumerate() {
            haystack[offset + k] = v;
        }
        let r = dtw_subsequence(&pattern, &haystack).unwrap();
        assert!(r.cost < 1e-9);
        let matched = r.matched_range(0, pattern.len()).unwrap();
        assert_eq!(matched, offset..offset + pattern.len());
        assert_monotone(&r.path);
    }

    #[test]
    fn subsequence_keeps_first_of_equally_good_matches() {
        // The pattern appears twice with identical (zero) cost; the seed's
        // `Iterator::min_by` endpoint selection kept the FIRST minimal
        // column, so the left occurrence must win.
        let pattern = vec![3.0, 1.0, 3.0];
        let mut haystack = vec![5.0; 4];
        haystack.extend_from_slice(&pattern);
        haystack.extend_from_slice(&[5.0; 4]);
        haystack.extend_from_slice(&pattern);
        haystack.extend_from_slice(&[5.0; 4]);
        let r = dtw_subsequence(&pattern, &haystack).unwrap();
        assert!(r.cost < 1e-12);
        let matched = r.matched_range(0, pattern.len()).unwrap();
        assert_eq!(matched, 4..4 + pattern.len(), "must match the first occurrence");
    }

    #[test]
    fn subsequence_tolerates_stretch_of_the_embedded_pattern() {
        let pattern = vec![3.0, 2.0, 1.0, 0.5, 1.0, 2.0, 3.0];
        let mut haystack = vec![6.0; 10];
        // Embed a stretched copy (each value twice).
        for &v in &pattern {
            haystack.push(v);
            haystack.push(v);
        }
        haystack.extend(std::iter::repeat_n(6.0, 10));
        let r = dtw_subsequence(&pattern, &haystack).unwrap();
        assert!(r.cost < 1e-9);
        let matched = r.matched_range(0, pattern.len()).unwrap();
        assert!(matched.start >= 10 && matched.end <= 10 + 2 * pattern.len());
    }

    #[test]
    fn matched_indices_and_range_queries() {
        let r = DtwResult { cost: 0.0, path: vec![(0, 0), (1, 1), (1, 2), (2, 3)] };
        assert_eq!(r.matched_indices(1), vec![1, 2]);
        assert_eq!(r.matched_range(1, 2), Some(1..3));
        assert_eq!(r.matched_range(0, 3), Some(0..4));
        assert_eq!(r.matched_range(5, 6), None);
    }

    #[test]
    fn matched_ranges_agrees_with_per_segment_queries() {
        let r = DtwResult { cost: 0.0, path: vec![(0, 0), (1, 1), (1, 2), (3, 3), (3, 4)] };
        let all = r.matched_ranges();
        assert_eq!(all.len(), 4);
        for (i, range) in all.iter().enumerate() {
            assert_eq!(*range, r.matched_range(i, i + 1), "segment {i}");
        }
        assert_eq!(all[2], None);
    }

    #[test]
    fn wide_band_matches_exact_alignment() {
        let a = vec![0.0, 1.0, 2.5, 3.0, 2.0, 1.0, 0.5];
        let b = vec![0.1, 0.9, 1.1, 2.6, 3.1, 2.1, 0.9, 0.4];
        let exact = dtw_full(&a, &b).unwrap();
        let band = dtw_full_banded(&a, &b, Some(a.len().max(b.len()))).unwrap();
        assert_eq!(exact, band);
        let exact_sub = dtw_subsequence(&a, &b).unwrap();
        let band_sub = dtw_subsequence_banded(&a, &b, Some(a.len().max(b.len()))).unwrap();
        assert_eq!(exact_sub, band_sub);
    }

    #[test]
    fn narrow_band_restricts_warping() {
        // A long flat prefix forces the exact alignment to warp heavily;
        // a zero-width band forbids any warping at all, so the banded cost
        // can only be larger (the diagonal pairing).
        let a = vec![0.0, 1.0, 2.0, 3.0];
        let b = vec![0.0, 0.0, 0.0, 1.0];
        let exact = dtw_full(&a, &b).unwrap();
        let banded = dtw_full_banded(&a, &b, Some(0)).unwrap();
        assert!(banded.cost >= exact.cost - 1e-12);
        assert_eq!(banded.path.len(), a.len());
        for &(i, j) in &banded.path {
            assert_eq!(i, j);
        }
    }

    #[test]
    fn infeasible_band_returns_none() {
        // Band 0 with very different lengths: the diagonal jumps by more
        // than one column per row, so rows become disconnected.
        let a = vec![0.0, 1.0];
        let b = vec![0.0; 12];
        assert!(dtw_full_banded(&a, &b, Some(0)).is_none());
    }

    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_runs() {
        let mut scratch = DtwScratch::new();
        let pairs: Vec<(Vec<f64>, Vec<f64>)> = vec![
            ((0..30).map(|i| (i as f64 * 0.3).sin() + 1.5).collect(), vec![1.0; 40]),
            (vec![2.0, 1.0, 0.5, 1.0, 2.0], (0..12).map(|i| i as f64 * 0.5).collect()),
            ((0..8).map(|i| i as f64).collect(), (0..50).map(|i| (i % 7) as f64).collect()),
        ];
        for (a, b) in &pairs {
            for subsequence in [false, true] {
                let cost = dtw_values_into(a, b, subsequence, None, &mut scratch).unwrap();
                let fresh = if subsequence {
                    dtw_subsequence(a, b).unwrap()
                } else {
                    dtw_full(a, b).unwrap()
                };
                assert_eq!(cost, fresh.cost);
                assert_eq!(scratch.path(), fresh.path.as_slice());
            }
        }
    }

    #[test]
    fn early_abandon_only_cuts_losing_alignments() {
        // Offset the haystack so no segment ranges overlap: the optimal
        // cost must be strictly positive for the bound to bite.
        let a = [0.0, 1.0, 2.0, 1.0, 0.0];
        let b = [3.0, 4.0, 5.0, 4.0, 3.0, 3.5];
        let sr = {
            let pa: Vec<(f64, f64)> = a.iter().enumerate().map(|(i, &v)| (i as f64, v)).collect();
            SegmentedProfile::build(&PhaseProfile::from_pairs(&pa), 2)
        };
        let sm = {
            let pb: Vec<(f64, f64)> = b.iter().enumerate().map(|(i, &v)| (i as f64, v)).collect();
            SegmentedProfile::build(&PhaseProfile::from_pairs(&pb), 2)
        };
        let mut scratch = DtwScratch::new();
        let exact =
            dtw_segmented_into(&sr, &sm, true, 0.5, None, None, &mut scratch).expect("aligns");
        // A bound above the true cost must not abandon…
        let kept = dtw_segmented_into(&sr, &sm, true, 0.5, None, Some(exact + 1.0), &mut scratch);
        assert_eq!(kept, Some(exact));
        // …a bound below it must.
        let cut = dtw_segmented_into(&sr, &sm, true, 0.5, None, Some(exact / 2.0), &mut scratch);
        assert_eq!(cut, None);
    }

    #[test]
    fn segmented_dtw_aligns_same_profile_with_zero_cost() {
        let pairs: Vec<(f64, f64)> =
            (0..60).map(|i| (i as f64 * 0.05, 3.0 + (i as f64 * 0.1).sin())).collect();
        let p = PhaseProfile::from_pairs(&pairs);
        let sp = SegmentedProfile::build(&p, 5);
        let r = dtw_segmented(&sp, &sp, false).unwrap();
        assert!(r.cost.abs() < 1e-12);
        assert_monotone(&r.path);
    }

    #[test]
    fn segmented_dtw_is_cheaper_than_full_but_consistent() {
        // Build a slow V and a fast V; both DTW variants should align the
        // minima to each other.
        let make = |n: usize, dt: f64| {
            let pairs: Vec<(f64, f64)> = (0..n)
                .map(|i| {
                    let t = i as f64 * dt;
                    let centre = n as f64 * dt / 2.0;
                    (t, 0.5 + (t - centre).abs())
                })
                .collect();
            PhaseProfile::from_pairs(&pairs)
        };
        let reference = make(60, 0.05);
        let measured = make(90, 0.05); // slower sweep: wider V
        let r_full = dtw_full(&reference.phases(), &measured.phases()).unwrap();
        let sr = SegmentedProfile::build(&reference, 5);
        let sm = SegmentedProfile::build(&measured, 5);
        let r_seg = dtw_segmented(&sr, &sm, false).unwrap();
        assert!(sr.len() < reference.len());
        assert!(r_seg.path.len() < r_full.path.len());
        // The reference nadir (segment) maps near the measured nadir.
        let ref_nadir_seg = sr
            .segments()
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.min_phase.partial_cmp(&b.1.min_phase).unwrap())
            .unwrap()
            .0;
        let matched = r_seg.matched_range(ref_nadir_seg, ref_nadir_seg + 1).unwrap();
        let measured_centre_seg = sm.len() / 2;
        assert!(
            (matched.start as i64 - measured_centre_seg as i64).abs() <= 2,
            "nadir segment should map near the centre: {matched:?} vs {measured_centre_seg}"
        );
    }

    #[test]
    fn segmented_subsequence_locates_vzone_region() {
        // Reference: one clean V. Measured: flat, V, flat.
        let v_pairs: Vec<(f64, f64)> =
            (0..40).map(|i| (i as f64 * 0.05, 0.5 + (i as f64 * 0.05 - 1.0).abs())).collect();
        let reference = PhaseProfile::from_pairs(&v_pairs);
        let mut measured_pairs = Vec::new();
        for i in 0..30 {
            measured_pairs.push((i as f64 * 0.05, 4.0));
        }
        for i in 0..40 {
            measured_pairs.push((1.5 + i as f64 * 0.05, 0.5 + (i as f64 * 0.05 - 1.0).abs()));
        }
        for i in 0..30 {
            measured_pairs.push((3.5 + i as f64 * 0.05, 4.0));
        }
        let measured = PhaseProfile::from_pairs(&measured_pairs);
        let sr = SegmentedProfile::build(&reference, 5);
        let sm = SegmentedProfile::build(&measured, 5);
        let r = dtw_segmented(&sr, &sm, true).unwrap();
        let matched_segs = r.matched_range(0, sr.len()).unwrap();
        let sample_range = sm.sample_range(matched_segs);
        // The matched sample range must be (mostly) inside the embedded V.
        assert!(sample_range.start >= 25, "start = {}", sample_range.start);
        assert!(sample_range.end <= 76, "end = {}", sample_range.end);
    }

    /// The first `j` segments of a representation, as the batch kernel
    /// would see them.
    fn features_prefix(f: &SegmentFeatures, j: usize) -> SegmentFeatures {
        SegmentFeatures { lo: f.lo[..j].to_vec(), hi: f.hi[..j].to_vec(), dur: f.dur[..j].to_vec() }
    }

    fn synthetic_v_features(samples: usize, dt: f64, center_s: f64) -> SegmentFeatures {
        let pairs: Vec<(f64, f64)> = (0..samples)
            .map(|i| {
                let t = i as f64 * dt;
                (t, rfid_phys::wrap_phase((t - center_s).abs() * 2.0 + 0.4))
            })
            .collect();
        let profile = PhaseProfile::from_pairs(&pairs);
        SegmentFeatures::from_segmented(&SegmentedProfile::build(&profile, 5))
    }

    #[test]
    fn incremental_cost_is_bit_identical_to_batch_at_every_prefix() {
        let reference = synthetic_v_features(60, 0.02, 0.6);
        let measured = synthetic_v_features(300, 0.017, 2.6);
        assert!(reference.len() > 1 && measured.len() > reference.len());
        let mut scratch = DtwScratch::new();
        for penalty in [0.0, 0.5, 2.0] {
            let mut inc = IncrementalDtwCost::new();
            for j in 0..measured.len() {
                let got = inc.append(
                    &reference,
                    penalty,
                    measured.lo[j],
                    measured.hi[j],
                    measured.dur[j],
                );
                assert_eq!(inc.appended(), j + 1);
                let prefix = features_prefix(&measured, j + 1);
                let want =
                    dtw_segmented_cost_only(&reference, &prefix, penalty, None, None, &mut scratch);
                assert_eq!(
                    want.map(f64::to_bits),
                    got.map(f64::to_bits),
                    "penalty {penalty}, prefix {}",
                    j + 1
                );
                assert_eq!(got.map(f64::to_bits), inc.best().map(f64::to_bits));
            }
        }
    }

    #[test]
    fn incremental_cost_handles_single_segment_reference() {
        let mut reference = SegmentFeatures::default();
        reference.push(1.0, 2.0, 0.1);
        let measured = synthetic_v_features(120, 0.02, 1.2);
        let mut scratch = DtwScratch::new();
        let mut inc = IncrementalDtwCost::new();
        for j in 0..measured.len() {
            let got = inc.append(&reference, 0.5, measured.lo[j], measured.hi[j], measured.dur[j]);
            let prefix = features_prefix(&measured, j + 1);
            let want = dtw_segmented_cost_only(&reference, &prefix, 0.5, None, None, &mut scratch);
            assert_eq!(want.map(f64::to_bits), got.map(f64::to_bits), "prefix {}", j + 1);
        }
    }

    #[test]
    fn incremental_cost_reset_allows_reuse_and_empty_reference_is_none() {
        let reference = synthetic_v_features(60, 0.02, 0.6);
        let measured = synthetic_v_features(150, 0.02, 1.5);
        let mut inc = IncrementalDtwCost::new();
        assert_eq!(inc.best(), None);
        for j in 0..measured.len() {
            inc.append(&reference, 0.5, measured.lo[j], measured.hi[j], measured.dur[j]);
        }
        let first = inc.best();
        assert!(first.is_some());
        inc.reset();
        assert_eq!(inc.best(), None);
        assert_eq!(inc.appended(), 0);
        for j in 0..measured.len() {
            inc.append(&reference, 0.5, measured.lo[j], measured.hi[j], measured.dur[j]);
        }
        assert_eq!(inc.best().map(f64::to_bits), first.map(f64::to_bits), "reset must replay");
        // An empty reference can never produce a cost.
        let mut empty = IncrementalDtwCost::new();
        assert_eq!(empty.append(&SegmentFeatures::default(), 0.5, 0.0, 1.0, 0.1), None);
    }
}

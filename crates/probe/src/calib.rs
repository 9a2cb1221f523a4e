//! The bench trajectory's one regression rule: history-calibrated noise
//! bands and the [`verdict`] built on them.
//!
//! The bench trajectory (`BENCH_history.jsonl`) accumulates one timing
//! sample per cell per run. A single global regression threshold treats a
//! 6 µs cell and a 1.3 s cell identically, but their run-to-run noise
//! differs by an order of magnitude. This module derives a **per-cell
//! relative band** from the cell's own trailing samples using robust
//! statistics — median and MAD (median absolute deviation) — so one
//! outlier run cannot widen the band the way a standard deviation would.
//!
//! [`verdict`] is used in three places: `ssp bench report` (and its
//! `--gate`, the enforcing CI gate) flags trajectory points with it, the
//! bench harness decides with it which regressed cells deserve an
//! auto-attached probe trace, and EXP-25 asserts it separates true steps
//! from run-to-run noise. Keeping the rule here (rather than in
//! `ssp-bench`) lets all three crates share it without a dependency
//! cycle; the attachment file name ([`attachment_stem`]) lives here for
//! the same reason.

/// Minimum relative band: even a perfectly quiet history (zero measured
/// dispersion) keeps a 5% guard against timer quantization.
pub const MIN_BAND: f64 = 0.05;

/// Maximum relative band: a wildly noisy history never excuses a 10%
/// slowdown, so a calibrated band is never looser than a fixed 10%
/// threshold.
pub const MAX_BAND: f64 = 0.10;

/// Dispersion multiplier: the band is `BAND_SIGMAS` robust standard
/// deviations (`1.4826 * MAD / median`), clamped to
/// [`MIN_BAND`]..[`MAX_BAND`]. Six sigmas keeps ±2% uniform noise (robust
/// sigma ≈ 1.5%) inside the band while a 20% step lands far outside it.
pub const BAND_SIGMAS: f64 = 6.0;

/// Median of `samples` (NaNs excluded). `None` when no finite sample
/// remains.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    })
}

/// Median absolute deviation around the sample median. `None` when
/// [`median`] is.
pub fn mad(samples: &[f64]) -> Option<f64> {
    let med = median(samples)?;
    let deviations: Vec<f64> = samples
        .iter()
        .filter(|x| x.is_finite())
        .map(|x| (x - med).abs())
        .collect();
    median(&deviations)
}

/// The calibrated relative noise band for a cell's trailing samples:
/// `clamp(BAND_SIGMAS * 1.4826 * MAD / median, MIN_BAND, MAX_BAND)`.
///
/// Degenerate histories fall back to [`MIN_BAND`]: fewer than 3 finite
/// samples (nothing to calibrate from), or a non-positive median (timing
/// samples are positive by construction; zeros mean a broken writer, not a
/// quiet cell).
pub fn noise_band(samples: &[f64]) -> f64 {
    let finite = samples.iter().filter(|x| x.is_finite()).count();
    if finite < 3 {
        return MIN_BAND;
    }
    let (Some(med), Some(mad)) = (median(samples), mad(samples)) else {
        return MIN_BAND;
    };
    if med <= 0.0 {
        return MIN_BAND;
    }
    let sigma_rel = 1.4826 * mad / med;
    (BAND_SIGMAS * sigma_rel).clamp(MIN_BAND, MAX_BAND)
}

/// Whether `latest` regresses against `baseline` past the calibrated
/// `band` (a relative fraction): `latest` must reach `baseline * (1 +
/// band)` and sit at or above the `min_ms` noise floor (sub-floor cells
/// are dominated by fixed overhead and timer quantization and never gate).
pub fn crosses(latest: f64, baseline: f64, band: f64, min_ms: f64) -> bool {
    baseline > 0.0 && latest.is_finite() && latest >= min_ms && latest >= baseline * (1.0 + band)
}

/// The judgement of a trajectory's latest point against the points
/// before it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// The lower of the prior samples' median and the previous point.
    pub baseline: f64,
    /// The calibrated relative band of the prior samples ([`noise_band`]).
    pub band: f64,
    /// `latest` [`crosses`] the band above `baseline`.
    pub flagged: bool,
}

/// Judge `latest` against the `prior` samples that precede it (oldest
/// first; the caller picks the trailing window). `None` when `prior`
/// holds no finite sample, i.e. there is nothing to compare against.
///
/// The baseline is `min(median(prior), previous point)`: the median keeps
/// one slow outlier run from becoming the reference, and the previous
/// point keeps an improvement step from being averaged away by the slower
/// runs before it, so a return to the old speed is caught. With the band
/// capped at [`MAX_BAND`] (10%), anything a fixed 10% threshold against
/// either the median or the previous point flags, this flags too.
pub fn verdict(prior: &[f64], latest: f64, min_ms: f64) -> Option<Verdict> {
    let previous = prior.iter().rev().copied().find(|x| x.is_finite())?;
    let baseline = median(prior)?.min(previous);
    let band = noise_band(prior);
    Some(Verdict {
        baseline,
        band,
        flagged: crosses(latest, baseline, band, min_ms),
    })
}

/// The file name a regressed cell's auto-attached probe trace is stored
/// under: `<bench>__<key>.jsonl`, with every character of the cell key
/// outside `[A-Za-z0-9._-]` replaced by `_`. The bench harness writes
/// attachments under this name and `ssp bench report` looks them up by it.
pub fn attachment_stem(bench: &str, key: &str) -> String {
    let key: String = key
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{bench}__{key}.jsonl")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad_are_robust_to_one_outlier() {
        let samples = [1.0, 1.02, 0.98, 1.01, 50.0];
        assert_eq!(median(&samples), Some(1.01));
        let mad = mad(&samples).unwrap();
        assert!(mad < 0.05, "one outlier must not inflate the MAD: {mad}");
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[f64::NAN]), None);
        assert_eq!(median(&[2.0, 4.0]), Some(3.0));
    }

    #[test]
    fn quiet_history_gets_the_floor_band() {
        assert_eq!(noise_band(&[1.0, 1.0, 1.0, 1.0]), MIN_BAND);
        // Too few samples to calibrate: floor.
        assert_eq!(noise_band(&[1.0, 1.3]), MIN_BAND);
        assert_eq!(noise_band(&[]), MIN_BAND);
        // NaNs don't count as samples.
        assert_eq!(noise_band(&[1.0, f64::NAN, 1.0]), MIN_BAND);
    }

    #[test]
    fn band_scales_with_dispersion_and_clamps() {
        // ±2% noise: robust sigma ~1.5%, band ~9% — between floor and cap.
        let pm2 = [1.0, 1.02, 0.98, 1.01, 0.99, 1.015, 0.985];
        let band = noise_band(&pm2);
        assert!(
            (MIN_BAND..0.15).contains(&band),
            "±2% noise should calibrate under 15%: {band}"
        );
        // A 20% true step crosses that band; in-noise points do not.
        let med = median(&pm2).unwrap();
        assert!(crosses(med * 1.20, med, band, 0.0));
        assert!(!crosses(med * 1.02, med, band, 0.0));
        // Wild history clamps at the cap.
        assert_eq!(noise_band(&[1.0, 3.0, 0.2, 5.0, 0.1]), MAX_BAND);
    }

    #[test]
    fn noise_floor_shields_tiny_cells() {
        assert!(!crosses(0.04, 0.02, 0.05, 0.05), "sub-floor never gates");
        assert!(crosses(0.06, 0.02, 0.05, 0.05));
        assert!(!crosses(1.0, 0.0, 0.05, 0.05), "zero baseline never gates");
        assert!(!crosses(f64::NAN, 1.0, 0.05, 0.05));
    }

    #[test]
    fn verdict_baselines_on_the_lower_of_median_and_previous_point() {
        // An improvement step, then a return to the old speed: the median
        // of the two prior points sits between them, the previous point
        // does not hide the return.
        let v = verdict(&[4.94, 1.33], 2.0, 0.05).unwrap();
        assert_eq!(v.baseline, 1.33);
        assert_eq!(v.band, MIN_BAND);
        assert!(v.flagged);
        // A slow outlier as the previous point: the median is the baseline.
        let v = verdict(&[1.0, 1.0, 1.0, 3.0], 1.02, 0.05).unwrap();
        assert_eq!(v.baseline, 1.0);
        assert!(!v.flagged);
        // Exactly 10% over the previous point flags under any band.
        let prior = [1.0, 3.0, 0.2, 5.0, 0.1, 0.8];
        assert_eq!(noise_band(&prior), MAX_BAND);
        assert!(verdict(&prior, 0.8 * 1.10, 0.05).unwrap().flagged);
        // Nothing to compare against.
        assert_eq!(verdict(&[], 1.0, 0.05), None);
        assert_eq!(verdict(&[f64::NAN], 1.0, 0.05), None);
    }

    #[test]
    fn attachment_stems_are_filesystem_safe() {
        assert_eq!(
            attachment_stem("yds_kernel", "family=agreeable,n=200"),
            "yds_kernel__family_agreeable_n_200.jsonl"
        );
        assert_eq!(attachment_stem("b", "x.y-z_1"), "b__x.y-z_1.jsonl");
    }
}

//! Request-size models: [`SizeModel`].
//!
//! Both corpora are dominated by small requests (Fig. 2: 75 % of
//! AliCloud reads ≤ 32 KiB, writes ≤ 16 KiB), with a thin tail of large
//! transfers. A discrete mixture over aligned sizes captures that shape
//! and keeps every generated request block-aligned.

use rand::Rng;

use crate::dist::Discrete;

/// One KiB in bytes.
pub const KIB: u32 = 1024;

/// A weighted mixture over fixed request sizes (bytes).
#[derive(Debug, Clone, PartialEq)]
pub struct SizeModel {
    dist: Discrete<u32>,
    max_size: u32,
}

impl SizeModel {
    /// Creates a model from `(size_bytes, weight)` pairs.
    ///
    /// Returns `None` if the table is empty, any size is zero, or the
    /// weights are invalid (negative / non-finite / all zero).
    pub fn new(weighted: Vec<(u32, f64)>) -> Option<Self> {
        if weighted.iter().any(|&(s, _)| s == 0) {
            return None;
        }
        let max_size = weighted.iter().map(|&(s, _)| s).max()?;
        Some(SizeModel {
            dist: Discrete::new(weighted)?,
            max_size,
        })
    }

    /// Builds a preset from a compile-time table.
    fn preset(table: Vec<(u32, f64)>) -> Self {
        match SizeModel::new(table) {
            Some(model) => model,
            #[expect(
                clippy::unreachable,
                reason = "preset tables are compile-time constants with nonzero sizes and positive weights"
            )]
            None => unreachable!("static size table rejected"),
        }
    }

    /// The small-I/O mixture typical of AliCloud-like *writes*
    /// (75th percentile ≈ 16 KiB).
    pub fn small_writes() -> Self {
        SizeModel::preset(vec![
            (4 * KIB, 0.45),
            (8 * KIB, 0.20),
            (16 * KIB, 0.15),
            (32 * KIB, 0.10),
            (64 * KIB, 0.06),
            (128 * KIB, 0.03),
            (512 * KIB, 0.01),
        ])
    }

    /// The small-I/O mixture typical of AliCloud-like *reads*
    /// (75th percentile ≈ 32 KiB).
    pub fn small_reads() -> Self {
        SizeModel::preset(vec![
            (4 * KIB, 0.35),
            (8 * KIB, 0.18),
            (16 * KIB, 0.17),
            (32 * KIB, 0.14),
            (64 * KIB, 0.10),
            (128 * KIB, 0.04),
            (512 * KIB, 0.02),
        ])
    }

    /// A larger sequential-transfer mixture (media/backup style,
    /// 75th percentile ≈ 64 KiB) used by some MSRC-like volumes.
    pub fn bulk() -> Self {
        SizeModel::preset(vec![
            (8 * KIB, 0.15),
            (16 * KIB, 0.20),
            (32 * KIB, 0.20),
            (64 * KIB, 0.25),
            (128 * KIB, 0.12),
            (256 * KIB, 0.06),
            (1024 * KIB, 0.02),
        ])
    }

    /// The largest size the model can emit.
    pub fn max_size(&self) -> u32 {
        self.max_size
    }

    /// Draws one request size in bytes.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        *self.dist.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    fn percentile(model: &SizeModel, p: f64) -> u32 {
        let mut r = rng();
        let mut samples: Vec<u32> = (0..20_000).map(|_| model.sample(&mut r)).collect();
        samples.sort_unstable();
        samples[(samples.len() as f64 * p) as usize]
    }

    #[test]
    fn presets_hit_paper_quartiles() {
        // Fig. 2(a): 75% of AliCloud writes ≤ 16 KiB, reads ≤ 32 KiB.
        assert!(percentile(&SizeModel::small_writes(), 0.75) <= 16 * KIB);
        assert!(percentile(&SizeModel::small_reads(), 0.75) <= 32 * KIB);
        // MSRC reads skew bigger (75% ≤ 64 KiB).
        assert!(percentile(&SizeModel::bulk(), 0.75) <= 64 * KIB);
        assert!(percentile(&SizeModel::bulk(), 0.5) >= 16 * KIB);
    }

    #[test]
    fn samples_come_from_the_table() {
        let model = SizeModel::new(vec![(4096, 1.0), (8192, 1.0)]).unwrap();
        let mut r = rng();
        for _ in 0..1000 {
            let s = model.sample(&mut r);
            assert!(s == 4096 || s == 8192);
        }
        assert_eq!(model.max_size(), 8192);
    }

    #[test]
    fn rejects_invalid_tables() {
        assert!(SizeModel::new(vec![]).is_none());
        assert!(SizeModel::new(vec![(0, 1.0)]).is_none());
        assert!(SizeModel::new(vec![(4096, -1.0)]).is_none());
        assert!(SizeModel::new(vec![(4096, 0.0)]).is_none());
    }

    #[test]
    fn weights_shape_the_distribution() {
        let model = SizeModel::new(vec![(4096, 9.0), (65536, 1.0)]).unwrap();
        let mut r = rng();
        let small = (0..10_000).filter(|_| model.sample(&mut r) == 4096).count();
        let frac = small as f64 / 10_000.0;
        assert!((frac - 0.9).abs() < 0.02, "frac={frac}");
    }
}

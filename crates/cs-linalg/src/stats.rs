//! Column statistics and z-score helpers.

use crate::Matrix;

/// Column-wise mean of a matrix (the signature mean `μ_k` of Algorithm 1
/// line 3). Returns an all-zero vector for an empty matrix.
pub fn column_mean(m: &Matrix) -> Vec<f64> {
    let (rows, cols) = m.shape();
    let mut mean = vec![0.0; cols];
    if rows == 0 {
        return mean;
    }
    for row in m.rows_iter() {
        for (acc, &v) in mean.iter_mut().zip(row.iter()) {
            *acc += v;
        }
    }
    let inv = 1.0 / rows as f64;
    for v in &mut mean {
        *v *= inv;
    }
    mean
}

/// Column-wise population variance.
pub fn column_variance(m: &Matrix) -> Vec<f64> {
    let (rows, cols) = m.shape();
    let mean = column_mean(m);
    let mut var = vec![0.0; cols];
    if rows == 0 {
        return var;
    }
    for row in m.rows_iter() {
        for ((acc, &v), &mu) in var.iter_mut().zip(row.iter()).zip(mean.iter()) {
            let d = v - mu;
            *acc += d * d;
        }
    }
    let inv = 1.0 / rows as f64;
    for v in &mut var {
        *v *= inv;
    }
    var
}

/// Column-wise population standard deviation.
pub fn column_std(m: &Matrix) -> Vec<f64> {
    column_variance(m).into_iter().map(f64::sqrt).collect()
}

/// Mean of a slice; 0 for empty input.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Population variance of a slice; 0 for empty input.
pub fn variance(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mu = mean(v);
    v.iter().map(|x| (x - mu) * (x - mu)).sum::<f64>() / v.len() as f64
}

/// Per-row z-score magnitude of a signature matrix: the mean absolute
/// standardized deviation of each row from the column means. This is the
/// Z-score outlier score used by the scoping baseline (SciPy `zscore`
/// aggregated per element).
pub fn row_zscore_magnitude(m: &Matrix) -> Vec<f64> {
    let mean = column_mean(m);
    let std = column_std(m);
    m.rows_iter()
        .map(|row| {
            let mut acc = 0.0;
            let mut counted = 0usize;
            for ((&v, &mu), &sd) in row.iter().zip(mean.iter()).zip(std.iter()) {
                if sd > 0.0 {
                    acc += ((v - mu) / sd).abs();
                    counted += 1;
                }
            }
            if counted == 0 {
                0.0
            } else {
                acc / counted as f64
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_mean_known() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        assert_eq!(column_mean(&m), vec![2.0, 4.0]);
    }

    #[test]
    fn column_mean_empty() {
        assert_eq!(column_mean(&Matrix::zeros(0, 3)), vec![0.0; 3]);
    }

    #[test]
    fn column_variance_known() {
        let m = Matrix::from_rows(&[vec![1.0], vec![3.0]]);
        assert_eq!(column_variance(&m), vec![1.0]);
        assert_eq!(column_std(&m), vec![1.0]);
    }

    #[test]
    fn scalar_stats() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((variance(&[1.0, 2.0, 3.0]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
    }

    #[test]
    fn zscore_flags_outlier_row() {
        // Three tight rows plus one far-away row: the far row must get the
        // largest magnitude.
        let m = Matrix::from_rows(&[
            vec![0.0, 0.1],
            vec![0.1, 0.0],
            vec![0.05, 0.05],
            vec![5.0, 5.0],
        ]);
        let scores = row_zscore_magnitude(&m);
        let (max_idx, _) = crate::vecops::argmax(&scores).unwrap();
        assert_eq!(max_idx, 3);
    }

    #[test]
    fn zscore_constant_columns_are_ignored() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![1.0, 4.0]]);
        let scores = row_zscore_magnitude(&m);
        // First column constant: only the second contributes; both rows are
        // symmetric around the mean so their magnitudes are equal.
        assert!((scores[0] - scores[1]).abs() < 1e-12);
    }

    #[test]
    fn zscore_all_constant_gives_zero() {
        let m = Matrix::from_rows(&[vec![2.0, 2.0], vec![2.0, 2.0]]);
        assert_eq!(row_zscore_magnitude(&m), vec![0.0, 0.0]);
    }
}

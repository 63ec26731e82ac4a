//! Order statistics of a handful of samples. With so few samples no tail
//! percentile is reportable, so none is: median, quartiles, min and max.

/// Summary of one metric's samples.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `xs`; all zero when `xs` is empty. Quartiles follow
    /// Python's `statistics.quantiles(xs, n=4)` so the spread printed here
    /// is the spread the acceptance rule computes.
    pub fn of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary::default();
        }
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let m = v.len();
        let quantile = |i: usize| {
            if m < 2 {
                return v[0];
            }
            let j = (i * (m + 1) / 4).clamp(1, m - 1);
            let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            n: m,
            min: v[0],
            q1: quantile(1),
            median: quantile(2),
            q3: quantile(3),
            max: v[m - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 1.0, 2.0, 3.0, 3.0)
        );
        assert_eq!(Summary::of(&[4.0]).median, 4.0);
        assert_eq!(Summary::of(&[1.0, 3.0]).median, 2.0);
    }
}

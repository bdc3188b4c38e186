//! Sample summaries and the metric records the benchmark prints.

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was obtained (sample count, base of a ratio).
    pub note: String,
}

impl Metric {
    pub fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        }
    }
}

/// Nearest-rank percentile `q` (0..=1) of `xs`; `NaN` when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Median and percentile `q` of a timing sample as two metrics, each
/// noted with the sample count and how many samples lie beyond it.
pub fn timing(name: &str, xs: &[f64], unit: &'static str, q: f64, tag: &str) -> [Metric; 2] {
    let n = xs.len();
    let beyond = n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1)).min(n);
    [
        Metric::new(format!("{name}_p50"), median(xs), unit, format!("n={n}")),
        Metric::new(
            format!("{name}_{tag}"),
            percentile(xs, q),
            unit,
            format!("n={n}, {beyond} beyond"),
        ),
    ]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// FNV-1a over a byte string: the sweep row digest.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

//! Humanized number formatting for reports.

/// Formats a count with an adaptive suffix (K/M/G).
///
/// # Example
///
/// ```
/// assert_eq!(cbs_report::fmt::count(1_234), "1.23K");
/// assert_eq!(cbs_report::fmt::count(20_200_000_000), "20.20G");
/// assert_eq!(cbs_report::fmt::count(17), "17");
/// ```
pub fn count(n: u64) -> String {
    let n = n as f64;
    if n >= 1e9 {
        format!("{:.2}G", n / 1e9)
    } else if n >= 1e6 {
        format!("{:.2}M", n / 1e6)
    } else if n >= 1e3 {
        format!("{:.2}K", n / 1e3)
    } else {
        format!("{n:.0}")
    }
}

/// Formats a byte quantity with binary units.
///
/// # Example
///
/// ```
/// assert_eq!(cbs_report::fmt::bytes(1 << 30), "1.00GiB");
/// assert_eq!(cbs_report::fmt::bytes(512), "512B");
/// ```
pub fn bytes(n: u64) -> String {
    const KIB: f64 = 1024.0;
    let n = n as f64;
    if n >= KIB * KIB * KIB * KIB {
        format!("{:.2}TiB", n / (KIB * KIB * KIB * KIB))
    } else if n >= KIB * KIB * KIB {
        format!("{:.2}GiB", n / (KIB * KIB * KIB))
    } else if n >= KIB * KIB {
        format!("{:.2}MiB", n / (KIB * KIB))
    } else if n >= KIB {
        format!("{:.2}KiB", n / KIB)
    } else {
        format!("{n:.0}B")
    }
}

/// Formats a fraction as a percentage with one decimal.
///
/// # Example
///
/// ```
/// assert_eq!(cbs_report::fmt::percent(0.915), "91.5%");
/// ```
pub fn percent(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Formats an optional fraction, with a dash for `None`.
pub fn percent_opt(fraction: Option<f64>) -> String {
    fraction.map_or_else(|| "-".to_owned(), percent)
}

/// Formats a float with three significant-ish decimals.
pub fn num(x: f64) -> String {
    if x == 0.0 {
        "0".to_owned()
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

/// Formats an optional float, with a dash for `None`.
pub fn num_opt(x: Option<f64>) -> String {
    x.map_or_else(|| "-".to_owned(), num)
}

/// Formats hours with an adaptive unit (s / min / h).
///
/// # Example
///
/// ```
/// assert_eq!(cbs_report::fmt::hours(16.2), "16.20h");
/// assert_eq!(cbs_report::fmt::hours(0.03), "1.8min");
/// ```
pub fn hours(h: f64) -> String {
    if h >= 1.0 {
        format!("{h:.2}h")
    } else if h * 60.0 >= 1.0 {
        format!("{:.1}min", h * 60.0)
    } else {
        format!("{:.1}s", h * 3600.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_suffixes() {
        assert_eq!(count(0), "0");
        assert_eq!(count(999), "999");
        assert_eq!(count(1_000), "1.00K");
        assert_eq!(count(5_058_600_000), "5.06G");
    }

    #[test]
    fn byte_units() {
        assert_eq!(bytes(0), "0B");
        assert_eq!(bytes(2048), "2.00KiB");
        assert_eq!(bytes(3 << 20), "3.00MiB");
        assert_eq!(bytes(455u64 << 40), "455.00TiB");
    }

    #[test]
    fn percents_and_nums() {
        assert_eq!(percent(0.0), "0.0%");
        assert_eq!(percent(1.0), "100.0%");
        assert_eq!(percent_opt(None), "-");
        assert_eq!(num(0.0), "0");
        assert_eq!(num(2.55), "2.55");
        assert_eq!(num(4926.8), "4926.8");
        assert_eq!(num(0.0123), "0.0123");
        assert_eq!(num_opt(None), "-");
    }

    #[test]
    fn adaptive_hours() {
        assert_eq!(hours(2.0), "2.00h");
        assert_eq!(hours(0.5), "30.0min");
        assert_eq!(hours(0.0001), "0.4s");
    }
}

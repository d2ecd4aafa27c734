//! Command-line value parsing shared by the `roofd` and `roofctl`
//! binaries. Each helper owns both its check and the error naming it —
//! `--workers needs a positive integer, got `0`` — so a flag's message
//! cannot drift from what it accepts.

use std::str::FromStr;

/// The value following `flag`; errs when the arguments ran out.
pub fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or(format!("{flag} needs a value"))
}

/// The value following `flag`, parsed and kept when `ok` accepts it;
/// `what` names the accepted values in the error.
fn checked<T: FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, String> {
    let v = value(it, flag)?;
    v.parse()
        .ok()
        .filter(ok)
        .ok_or(format!("{flag} needs {what}, got `{v}`"))
}

/// The value following `flag` as an integer.
pub fn int<T: FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String> {
    checked(it, flag, "an integer", |_| true)
}

/// The value following `flag` as an integer above zero.
pub fn positive<T: FromStr + PartialOrd + Default>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    checked(it, flag, "a positive integer", |n| *n > T::default())
}

/// The value following `flag` as a finite number above zero.
pub fn positive_real(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<f64, String> {
    checked(it, flag, "a positive number", |x: &f64| {
        x.is_finite() && *x > 0.0
    })
}

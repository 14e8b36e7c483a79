//! Drift fixture: `kept` is still here, `deleted` is gone, and `test_only`
//! survives only inside `#[cfg(test)]`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Still listed and still defined.
pub fn kept() {}

#[cfg(test)]
mod tests {
    fn test_only() {}
}

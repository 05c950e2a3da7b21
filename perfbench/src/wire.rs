//! Reading the daemon's response lines: `rev=` / `t=` stamps and
//! bit-for-bit comparison of the numeric fields.

/// The value of the first `key=value` token of a response line.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .filter_map(|tok| tok.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

pub fn rev(line: &str) -> Option<u64> {
    field(line, "rev")?.parse().ok()
}

pub fn t(line: &str) -> Option<u64> {
    field(line, "t")?.parse().ok()
}

/// `line` with its `rev=` stamp moved by `delta` (the revision offset a
/// restarted daemon's stamps carry against a replay that never restarted).
pub fn shift_rev(line: &str, delta: i64) -> Option<String> {
    let old = rev(line)?;
    let new = u64::try_from(i64::try_from(old).ok()? + delta).ok()?;
    Some(line.replacen(&format!("rev={old}"), &format!("rev={new}"), 1))
}

/// Whether two response lines carry the same answer: the same tokens,
/// where every numeric `key=value` field must agree to the bit. The
/// daemon prints floats in shortest round-trip form, so parsing recovers
/// the exact bits it computed.
pub fn same_answer(got: &str, want: &str) -> bool {
    let (a, b): (Vec<&str>, Vec<&str>) = (
        got.split_whitespace().collect(),
        want.split_whitespace().collect(),
    );
    a.len() == b.len()
        && a.iter()
            .zip(&b)
            .all(|(x, y)| match (x.split_once('='), y.split_once('=')) {
                (Some((kx, vx)), Some((ky, vy))) => {
                    kx == ky
                        && match (vx.parse::<f64>(), vy.parse::<f64>()) {
                            (Ok(fx), Ok(fy)) => fx.to_bits() == fy.to_bits(),
                            _ => vx == vy,
                        }
                }
                _ => x == y,
            })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_parse_and_floats_round_trip_to_the_same_bits() {
        let line = "OK rev=17 t=42";
        assert_eq!(rev(line), Some(17));
        assert_eq!(t(line), Some(42));
        assert_eq!(
            rev("ERR ceiling-exceeded scope=event projected=1.5 ceiling=1"),
            None
        );
        assert_eq!(shift_rev(line, 5).as_deref(), Some("OK rev=22 t=42"));
        assert_eq!(shift_rev(line, -17).as_deref(), Some("OK rev=0 t=42"));
        assert_eq!(shift_rev(line, -18), None);

        for v in [0.1 + 0.2, 1.0 / 3.0, 2.0f64.sqrt(), 1e-300, 123456.789e10] {
            let wire = format!("OK rev=3 max_tpl={v}");
            let back: f64 = field(&wire, "max_tpl").unwrap().parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn answers_compare_numerically_to_the_bit() {
        assert!(same_answer("OK rev=2 max_tpl=0.5", "OK rev=2 max_tpl=5e-1"));
        assert!(!same_answer("OK rev=2 max_tpl=0.5", "OK rev=3 max_tpl=0.5"));
        let next = f64::from_bits(0.5f64.to_bits() + 1);
        assert!(!same_answer(
            "OK rev=2 max_tpl=0.5",
            &format!("OK rev=2 max_tpl={next}")
        ));
        assert!(same_answer(
            "ERR ceiling-exceeded scope=event projected=2.5 ceiling=2",
            "ERR ceiling-exceeded scope=event projected=2.5 ceiling=2"
        ));
        assert!(!same_answer("OK rev=1 t=1", "OK rev=1 t=1 extra"));
        assert!(!same_answer("OK user=3", "OK user=4"));
    }
}

//! Trace I/O: a minimal CSV format and serde-JSON round-tripping.
//!
//! The CSV format is one `time_seconds,bandwidth_mbps` pair per line with an
//! optional header, matching how public 4G measurement datasets (e.g. the
//! Ghent dataset the paper uses) are distributed — so a user who *does* have
//! the real data can drop it in without code changes.

use crate::{BandwidthTrace, NetError, Result};

/// Serializes a trace to CSV (`time,bandwidth` per slot, header included).
pub fn to_csv(trace: &BandwidthTrace) -> String {
    let mut out = String::with_capacity(trace.num_slots() * 16 + 32);
    out.push_str("time_s,bandwidth_mbs\n");
    for (i, b) in trace.slots().iter().enumerate() {
        out.push_str(&format!(
            "{:.3},{:.6}\n",
            i as f64 * trace.slot_duration(),
            b
        ));
    }
    out
}

/// Parses a trace from CSV text.
///
/// Expects monotonically increasing, evenly spaced timestamps; the slot
/// duration is inferred from the first two rows (or `fallback_slot` for a
/// single-row file). Blank lines and lines starting with `#` are skipped
/// anywhere; a `time,...` header row is skipped only before the first data
/// row. A non-finite timestamp is a parse error.
pub fn from_csv(text: &str, fallback_slot: f64) -> Result<BandwidthTrace> {
    let mut times = Vec::new();
    let mut bws = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split(',');
        let t_str = parts.next().unwrap_or("").trim();
        let t = t_str.parse::<f64>();
        let is_header = t.is_err() && t_str.starts_with(|c: char| c.is_alphabetic());
        if is_header && times.is_empty() {
            continue;
        }
        let b_str = parts.next().ok_or_else(|| {
            NetError::Parse(format!("line {}: expected 'time,bandwidth'", lineno + 1))
        })?;
        let t = t.map_err(|e| NetError::Parse(format!("line {}: bad time: {e}", lineno + 1)))?;
        if !t.is_finite() {
            return Err(NetError::Parse(format!(
                "line {}: non-finite time {t}",
                lineno + 1
            )));
        }
        let b: f64 = b_str
            .trim()
            .parse()
            .map_err(|e| NetError::Parse(format!("line {}: bad bandwidth: {e}", lineno + 1)))?;
        times.push(t);
        bws.push(b);
    }
    if bws.is_empty() {
        return Err(NetError::Parse("no data rows found".to_string()));
    }
    let slot = if times.len() >= 2 {
        let d = times[1] - times[0];
        if !(d > 0.0) {
            return Err(NetError::Parse(
                "timestamps must be strictly increasing".to_string(),
            ));
        }
        // Verify even spacing within 1% tolerance.
        for w in times.windows(2) {
            if ((w[1] - w[0]) - d).abs() > 0.01 * d {
                return Err(NetError::Parse(format!(
                    "uneven slot spacing: {} vs {}",
                    w[1] - w[0],
                    d
                )));
            }
        }
        d
    } else {
        fallback_slot
    };
    BandwidthTrace::new(slot, bws)
}

/// Serializes a trace to JSON via serde.
pub fn to_json(trace: &BandwidthTrace) -> Result<String> {
    serde_json::to_string_pretty(trace).map_err(|e| NetError::Parse(format!("json encode: {e}")))
}

/// Parses a trace from serde JSON.
pub fn from_json(text: &str) -> Result<BandwidthTrace> {
    serde_json::from_str(text).map_err(|e| NetError::Parse(format!("json decode: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> BandwidthTrace {
        BandwidthTrace::new(2.0, vec![1.5, 0.0, 3.25]).unwrap()
    }

    #[test]
    fn csv_roundtrip() {
        let t = trace();
        let csv = to_csv(&t);
        let parsed = from_csv(&csv, 1.0).unwrap();
        assert_eq!(parsed.num_slots(), 3);
        assert!((parsed.slot_duration() - 2.0).abs() < 1e-9);
        for (a, b) in parsed.slots().iter().zip(t.slots()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn csv_skips_header_comments_blanks() {
        let text = "# comment\ntime_s,bandwidth_mbs\n\n0.0,1.0\n1.0,2.0\n";
        let t = from_csv(text, 1.0).unwrap();
        assert_eq!(t.slots(), &[1.0, 2.0]);
        assert_eq!(t.slot_duration(), 1.0);
    }

    #[test]
    fn csv_single_row_uses_fallback() {
        let t = from_csv("0.0,5.0\n", 7.0).unwrap();
        assert_eq!(t.slot_duration(), 7.0);
        assert_eq!(t.slots(), &[5.0]);
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(from_csv("", 1.0).is_err());
        assert!(from_csv("0.0\n", 1.0).is_err());
        assert!(from_csv("abc,1.0\n0.0,xyz\n", 1.0).is_err());
        assert!(from_csv("1.0,1.0\n0.5,1.0\n", 1.0).is_err()); // decreasing
        assert!(from_csv("0.0,1.0\n1.0,1.0\n3.0,1.0\n", 1.0).is_err()); // uneven
    }

    /// Header rows are recognized only before the first data row, and
    /// non-finite timestamps are rejected: neither may silently drop a row.
    #[test]
    fn csv_never_drops_data_rows() {
        for text in [
            "0,1\n1,2\n2,3\ninf,4\n",
            "0,1\nNaN,2\n",
            "-inf,1\n0,2\n",
            "time,bw\n0,1\ntime,bw\n1,2\n",
        ] {
            assert!(
                matches!(from_csv(text, 1.0), Err(NetError::Parse(_))),
                "{text:?}"
            );
        }
        let t = from_csv("time,bw\n# note\n0,1\n\n1,2\n", 1.0).unwrap();
        assert_eq!(t.slots(), &[1.0, 2.0]);
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let t = trace().cyclic();
        let json = to_json(&t).unwrap();
        let parsed = from_json(&json).unwrap();
        assert_eq!(parsed, t);
        assert!(parsed.is_cyclic());
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(from_json("not json").is_err());
    }

    /// Decoding goes through `BandwidthTrace::new`: payloads the
    /// constructor rejects are errors, never a trace that panics later.
    #[test]
    fn json_rejects_traces_the_constructor_rejects() {
        for payload in [
            r#"{"slot_duration":1.0,"slots":[1.0,-0.5],"cyclic":false}"#,
            r#"{"slot_duration":0,"slots":[1.0],"cyclic":true}"#,
            r#"{"slot_duration":1.0,"slots":[],"cyclic":true}"#,
        ] {
            assert!(from_json(payload).is_err(), "{payload}");
        }
        let set: std::result::Result<crate::TraceSet, _> = serde_json::from_str(r#"{"traces":[]}"#);
        assert!(set.is_err());
        let set: std::result::Result<crate::TraceSet, _> =
            serde_json::from_str(r#"{"traces":[{"slot_duration":1.0,"slots":[],"cyclic":true}]}"#);
        assert!(set.is_err());
    }
}

//! A trial's results as `key value` lines: what a trial process prints
//! and the run process parses back.

use std::collections::BTreeMap;

/// FNV-1a over a stream of words: the digest behind every identity this
/// benchmark prints (covers, work counters, the source tree).
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Keys map to numbers, or to text for digests and report lines.
#[derive(Default, Debug, PartialEq)]
pub struct Record(BTreeMap<String, String>);

impl Record {
    pub fn num(&mut self, key: impl Into<String>, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(key.into(), value.to_string());
    }

    pub fn text(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.0.insert(key.into(), value.into());
    }

    /// The number under `key`; 0 when absent.
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
    }

    pub fn get_text(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    /// Entries whose key starts with `prefix`, with the prefix removed.
    pub fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a str, &'a str)> {
        self.0
            .iter()
            .filter_map(move |(k, v)| Some((k.strip_prefix(prefix)?, v.as_str())))
    }

    pub fn render(&self) -> String {
        self.0.iter().map(|(k, v)| format!("{k} {v}\n")).collect()
    }

    pub fn parse(text: &str) -> Self {
        Self(
            text.lines()
                .filter_map(|l| l.split_once(' '))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_numbers_and_text() {
        let mut r = Record::default();
        r.num("e2e.setup_s", 0.123_456_789_012_345_6);
        r.num("count.slots", 1_700_364.0);
        r.text("dominant", "repair (72.3% of busy time)");
        let back = Record::parse(&r.render());
        assert_eq!(back, r);
        assert_eq!(back.get("e2e.setup_s"), 0.123_456_789_012_345_6);
        assert_eq!(back.get("missing"), 0.0);
        assert_eq!(
            back.get_text("dominant"),
            Some("repair (72.3% of busy time)")
        );
        let counts: Vec<_> = back.with_prefix("count.").collect();
        assert_eq!(counts, vec![("slots", "1700364")]);
    }
}

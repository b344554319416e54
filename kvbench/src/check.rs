//! The correctness gate: every operation's invocation and response time,
//! per key, checked for regularity with `vrr-checker` after the window.

use std::collections::BTreeMap;

use vrr_checker::{check_regularity, OpHistory};

/// One completed operation as a client saw it. Times are
/// [`crate::trace::now_ns`] readings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Record {
    /// `client << 40 | index` — shared with the operation's spans.
    pub op: u64,
    /// The key addressed.
    pub key: u64,
    /// The issuing client, which reads as the reader of the same index.
    pub client: usize,
    /// Whether the operation wrote.
    pub write: bool,
    /// When the client issued the operation: before it waits for the
    /// key's single-writer turn, so latency includes that wait.
    pub start: u64,
    /// When the call into the store began (for writes, after the wait).
    pub invoke: u64,
    /// When the call returned.
    pub end: u64,
    /// The write's timestamp, or the timestamp of the value read.
    pub ts: u64,
    /// The value written or read.
    pub value: u64,
    /// Protocol round trips the operation took.
    pub rounds: u32,
    /// Whether a read finished through the one-round fast path.
    pub fast: bool,
}

/// Regularity violations over every key's history, plus a description of
/// the first few. `records` must hold every completed operation of the
/// deployment, set-up writes included.
pub fn check(records: &[&Record]) -> (u64, Vec<String>) {
    let mut per_key: BTreeMap<u64, OpHistory<u64>> = BTreeMap::new();
    for r in records {
        let h = per_key.entry(r.key).or_default();
        if r.write {
            h.push_write(r.ts, r.value, r.invoke, Some(r.end));
        } else {
            h.push_read(r.client, r.ts, Some(r.value), r.invoke, Some(r.end));
        }
    }
    let mut violations = 0;
    let mut examples = Vec::new();
    for (key, history) in &per_key {
        if let Err(found) = check_regularity(history) {
            violations += found.len() as u64;
            examples.extend(found.iter().take(3).map(|v| format!("key {key}: {v:?}")));
        }
    }
    (violations, examples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(key: u64, client: usize, write: bool, span: (u64, u64), ts: u64, value: u64) -> Record {
        Record {
            op: 0,
            key,
            client,
            write,
            start: span.0,
            invoke: span.0,
            end: span.1,
            ts,
            value,
            rounds: 2,
            fast: false,
        }
    }

    #[test]
    fn regular_histories_pass_and_stale_reads_are_counted() {
        let ok = [
            rec(0, 0, true, (0, 10), 1, 100),
            rec(0, 1, true, (20, 30), 2, 200),
            rec(0, 0, false, (25, 40), 1, 100), // concurrent with write 2
            rec(0, 1, false, (50, 60), 2, 200),
            rec(1, 0, true, (0, 5), 1, 7),
        ];
        let all: Vec<&Record> = ok.iter().collect();
        assert_eq!(check(&all).0, 0);

        // A read that starts after write 2 completed must not return 1.
        let stale = rec(0, 0, false, (70, 80), 1, 100);
        let mut bad = all.clone();
        bad.push(&stale);
        let (violations, examples) = check(&bad);
        assert_eq!(violations, 1);
        assert!(examples[0].starts_with("key 0:"));

        // A value nobody wrote is rejected too.
        let phantom = rec(1, 1, false, (10, 20), 1, 8);
        let (violations, _) = check(&[&ok[4], &phantom]);
        assert_eq!(violations, 1);
    }
}

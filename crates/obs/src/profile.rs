//! The `profile.json` artifact: a machine-readable digest of one traced
//! run, attached to `chats-run` manifests and written by `chats-trace`.

use crate::timeline::{CycleBreakdown, Timeline};
use serde::Value;
use std::collections::BTreeMap;

/// Identity of the run a profile describes.
#[derive(Debug, Clone, Default)]
pub struct ProfileMeta {
    /// Workload registry name.
    pub workload: String,
    /// HTM system label (e.g. `chats`).
    pub system: String,
    /// Thread count.
    pub threads: usize,
    /// Root seed.
    pub seed: u64,
}

fn breakdown_value(b: &CycleBreakdown) -> Value {
    let mut m = BTreeMap::new();
    m.insert("useful".to_string(), Value::U64(b.useful));
    m.insert("wasted".to_string(), Value::U64(b.wasted));
    m.insert(
        "validation_stall".to_string(),
        Value::U64(b.validation_stall),
    );
    m.insert("fallback".to_string(), Value::U64(b.fallback));
    m.insert("other".to_string(), Value::U64(b.other));
    Value::Obj(m)
}

/// Builds the profile JSON value for `timeline`.
#[must_use]
pub fn profile_value(tl: &Timeline, meta: &ProfileMeta) -> Value {
    let mut root = BTreeMap::new();
    root.insert("workload".to_string(), Value::Str(meta.workload.clone()));
    root.insert("system".to_string(), Value::Str(meta.system.clone()));
    root.insert("threads".to_string(), Value::U64(meta.threads as u64));
    root.insert("seed".to_string(), Value::U64(meta.seed));
    root.insert("total_cycles".to_string(), Value::U64(tl.total_cycles));
    root.insert("commits".to_string(), Value::U64(tl.commits()));
    root.insert("aborts".to_string(), Value::U64(tl.aborts()));

    root.insert("aggregate".to_string(), breakdown_value(&tl.aggregate()));
    root.insert(
        "cores".to_string(),
        Value::Arr(
            tl.cores
                .iter()
                .map(|c| breakdown_value(&c.breakdown))
                .collect(),
        ),
    );

    let mut chains = BTreeMap::new();
    chains.insert("forwardings".to_string(), Value::U64(tl.chains.forwardings));
    chains.insert(
        "pic_depth_hist".to_string(),
        Value::Obj(
            tl.chains
                .pic_depth_hist
                .iter()
                .map(|(d, n)| (d.to_string(), Value::U64(*n)))
                .collect(),
        ),
    );
    chains.insert(
        "chain_len_hist".to_string(),
        Value::Obj(
            tl.chains
                .chain_len_hist
                .iter()
                .map(|(l, n)| (l.to_string(), Value::U64(*n)))
                .collect(),
        ),
    );
    chains.insert(
        "graph".to_string(),
        Value::Arr(
            tl.chains
                .graph
                .iter()
                .map(|((from, to), n)| {
                    let mut e = BTreeMap::new();
                    e.insert("from".to_string(), Value::U64(*from as u64));
                    e.insert("to".to_string(), Value::U64(*to as u64));
                    e.insert("count".to_string(), Value::U64(*n));
                    Value::Obj(e)
                })
                .collect(),
        ),
    );
    root.insert("chains".to_string(), Value::Obj(chains));

    // The contention heat map (forwardings per line); consumers join it
    // against the workload's region table for per-contract attribution.
    root.insert(
        "hot_lines".to_string(),
        Value::Obj(
            tl.hot_lines
                .iter()
                .map(|(l, n)| (l.to_string(), Value::U64(*n)))
                .collect(),
        ),
    );

    let mut noc = BTreeMap::new();
    noc.insert("messages".to_string(), Value::U64(tl.noc.messages));
    noc.insert("flits".to_string(), Value::U64(tl.noc.flits));
    noc.insert(
        "transit_cycles".to_string(),
        Value::U64(tl.noc.transit_cycles),
    );
    noc.insert(
        "queueing_cycles".to_string(),
        Value::U64(tl.noc.queueing_cycles),
    );
    root.insert("noc".to_string(), Value::Obj(noc));

    Value::Obj(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chats_machine::TraceEvent;
    use chats_sim::Cycle;

    #[test]
    fn profile_carries_identity_and_buckets() {
        let events = vec![
            TraceEvent::TxBegin {
                at: Cycle(0),
                core: 0,
            },
            TraceEvent::Commit {
                at: Cycle(8),
                core: 0,
            },
        ];
        let tl = Timeline::rebuild(&events, 10);
        let meta = ProfileMeta {
            workload: "cadd".into(),
            system: "chats".into(),
            threads: 4,
            seed: 7,
        };
        let v = profile_value(&tl, &meta);
        let m = v.as_obj().unwrap();
        assert_eq!(m["workload"].as_str(), Some("cadd"));
        assert_eq!(m["total_cycles"].as_u64(), Some(10));
        let agg = m["aggregate"].as_obj().unwrap();
        let sum: u64 = ["useful", "wasted", "validation_stall", "fallback", "other"]
            .iter()
            .map(|k| agg[*k].as_u64().unwrap())
            .sum();
        assert_eq!(sum, 10);
        // The artifact must be valid JSON end to end.
        assert_eq!(Value::parse(&v.to_compact()), Ok(v));
    }
}

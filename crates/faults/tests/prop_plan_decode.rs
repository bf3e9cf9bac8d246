//! `FaultPlan::from_value` decodes a file a user hands to `--faults`, so
//! it must be total: every mutation of a shipped `plans/*.json` document
//! (keys deleted, types swapped, numbers out of range, unknown keys)
//! decodes to `Ok` or `Err` and never panics, and a plan it accepts
//! re-encodes to itself.

use chats_faults::FaultPlan;
use proptest::prelude::*;
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// The shipped plan documents, parsed.
fn shipped_documents() -> Vec<Value> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../plans");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no plans under {}", dir.display());
    paths
        .iter()
        .map(|p| Value::parse(&std::fs::read_to_string(p).unwrap()).unwrap())
        .collect()
}

/// The object a mutation edits: the top level, or one of its sections.
fn target(doc: &mut Value, pick: u64) -> Option<&mut BTreeMap<String, Value>> {
    let Value::Obj(top) = doc else { return None };
    let sections: Vec<String> = top
        .iter()
        .filter(|(_, v)| matches!(v, Value::Obj(_)))
        .map(|(k, _)| k.clone())
        .collect();
    let i = (pick % (sections.len() as u64 + 1)) as usize;
    match sections.get(i) {
        Some(name) => match top.get_mut(name) {
            Some(Value::Obj(section)) => Some(section),
            _ => None,
        },
        None => Some(top),
    }
}

/// Applies one mutation of `kind` to the key `pick` selects, with `n`
/// as its raw material.
fn mutate(doc: &mut Value, kind: u8, pick: u64, n: u64) {
    let Some(obj) = target(doc, pick) else { return };
    let keys: Vec<String> = obj.keys().cloned().collect();
    if keys.is_empty() {
        return;
    }
    let key = keys[(n % keys.len() as u64) as usize].clone();
    match kind {
        0 => {
            obj.remove(&key);
        }
        1 => {
            let swapped = [
                Value::Null,
                Value::Bool(true),
                Value::Str("x".into()),
                Value::F64(1.5),
                Value::I64(-1),
                Value::Arr(Vec::new()),
                Value::Obj(BTreeMap::new()),
            ];
            obj.insert(key, swapped[(n % swapped.len() as u64) as usize].clone());
        }
        2 => {
            let big = [1_001, u64::from(u32::MAX) + 1, u64::MAX, n];
            obj.insert(key, Value::U64(big[(pick % big.len() as u64) as usize]));
        }
        _ => {
            obj.insert(format!("unknown_{n}"), Value::U64(n));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_shipped_plans_decode_or_err_and_never_panic(
        which in any::<u64>(),
        edits in proptest::collection::vec((0u8..4, any::<u64>(), any::<u64>()), 1..6),
    ) {
        let docs = shipped_documents();
        let mut doc = docs[(which % docs.len() as u64) as usize].clone();
        for (kind, pick, n) in edits {
            mutate(&mut doc, kind, pick, n);
        }
        if let Ok(plan) = FaultPlan::from_value(&doc) {
            let back = FaultPlan::from_value(&plan.to_value());
            prop_assert_eq!(back.as_ref(), Ok(&plan));
            prop_assert_eq!(back.unwrap().hash(), plan.hash());
        }
    }
}

#[test]
fn each_mutation_kind_is_rejected_where_it_breaks_the_schema() {
    let doc = &shipped_documents()[0];
    let edit = |section: &str, key: &str, v: Value| {
        let mut d = doc.clone();
        let Value::Obj(top) = &mut d else {
            unreachable!()
        };
        match top.get_mut(section) {
            Some(Value::Obj(s)) => s.insert(key.to_string(), v),
            _ => top.insert(key.to_string(), v),
        };
        FaultPlan::from_value(&d)
    };
    assert!(edit("noc", "drop_permille", Value::U64(1_001)).is_err());
    assert!(edit("noc", "delay_max", Value::I64(-1)).is_err());
    assert!(edit("", "seed_salt", Value::Str("x".into())).is_err());
    assert!(edit("", "htm", Value::Arr(Vec::new())).is_err());
    assert!(edit("", "version", Value::U64(2)).is_err());
    assert!(edit("", "unknown_key", Value::Null).is_ok());
    let cap = chats_faults::MAX_CYCLE_KNOB;
    assert!(edit("noc", "reorder_window", Value::U64(cap)).is_ok());
    assert!(edit("noc", "reorder_window", Value::U64(cap + 1)).is_err());
    assert!(edit("", "watchdog_horizon", Value::U64(u64::MAX)).is_err());
}

//! `Reproducer::from_json` decodes a file a user hands to `chats-check
//! replay`, so it must be total: every mutation of the reproducer fixture
//! (keys deleted, types swapped, numbers out of range, unknown keys)
//! decodes to `Ok` or `Err` and never panics, and a reproducer it accepts
//! re-encodes to itself. Decoding also rejects what would not run: a
//! thread count outside `1..=64`, a program count of zero (the kernel
//! builders assert against it) or above 2^16, an EVM pool larger than
//! the account space.

use chats_check::scenario::{MAX_PROGRAM_FIELD, MAX_THREADS};
use chats_check::{ProgramSpec, Reproducer};
use chats_runner::Json;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;

/// The reproducer fixture, parsed.
fn fixture() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/reproducer.json");
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// The key path of every object in `doc`, the top level first.
fn object_paths(doc: &Json, path: &[String], out: &mut Vec<Vec<String>>) {
    if let Json::Obj(map) = doc {
        out.push(path.to_vec());
        for (k, v) in map {
            let mut child = path.to_vec();
            child.push(k.clone());
            object_paths(v, &child, out);
        }
    }
}

/// The object a mutation edits: the top level or one nested object.
fn target(doc: &mut Json, pick: u64) -> Option<&mut BTreeMap<String, Json>> {
    let mut paths = Vec::new();
    object_paths(doc, &[], &mut paths);
    let path = &paths[(pick % paths.len() as u64) as usize];
    let mut node = doc;
    for key in path {
        node = match node {
            Json::Obj(map) => map.get_mut(key)?,
            _ => return None,
        };
    }
    match node {
        Json::Obj(map) => Some(map),
        _ => None,
    }
}

/// Applies one mutation of `kind` to the key `pick` selects, with `n`
/// as its raw material.
fn mutate(doc: &mut Json, kind: u8, pick: u64, n: u64) {
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
                Json::Null,
                Json::Bool(true),
                Json::Str("x".into()),
                Json::F64(1.5),
                Json::I64(-1),
                Json::Arr(Vec::new()),
                Json::Obj(BTreeMap::new()),
            ];
            obj.insert(key, swapped[(n % swapped.len() as u64) as usize].clone());
        }
        2 => {
            let numbers = [
                0,
                1,
                MAX_THREADS + 1,
                MAX_PROGRAM_FIELD + 1,
                u64::from(u32::MAX) + 1,
                u64::MAX,
                n,
            ];
            let i = (n >> 32) % numbers.len() as u64;
            obj.insert(key, Json::U64(numbers[i as usize]));
        }
        _ => {
            obj.insert(format!("unknown_{n}"), Json::U64(n));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_reproducers_decode_or_err_and_never_panic(
        edits in proptest::collection::vec((0u8..4, any::<u64>(), any::<u64>()), 1..6),
    ) {
        let mut doc = fixture();
        for (kind, pick, n) in edits {
            mutate(&mut doc, kind, pick, n);
        }
        if let Ok(repro) = Reproducer::from_json(&doc) {
            let back = Reproducer::from_json(&repro.to_json());
            prop_assert_eq!(back.as_ref(), Ok(&repro));
            // An accepted program always builds.
            let _ = repro.scenario.program.build();
        }
    }
}

/// The fixture with `edit` applied to its scenario object.
fn with_scenario(edit: impl FnOnce(&mut BTreeMap<String, Json>)) -> Result<Reproducer, String> {
    let mut doc = fixture();
    let Json::Obj(top) = &mut doc else {
        unreachable!()
    };
    let Some(Json::Obj(scenario)) = top.get_mut("scenario") else {
        unreachable!()
    };
    edit(scenario);
    Reproducer::from_json(&doc)
}

#[test]
fn the_fixture_decodes_and_re_encodes_to_itself() {
    let repro = Reproducer::from_json(&fixture()).unwrap();
    assert_eq!(Reproducer::from_json(&repro.to_json()), Ok(repro));
}

#[test]
fn thread_counts_outside_one_to_sixty_four_are_rejected() {
    let threads = |n: u64| {
        with_scenario(|s| {
            s.insert("threads".into(), Json::U64(n));
        })
    };
    for bad in [0, MAX_THREADS + 1, u64::MAX] {
        let err = threads(bad).unwrap_err();
        assert!(err.contains("'threads'"), "{bad}: {err}");
    }
    for good in [1, MAX_THREADS] {
        assert_eq!(threads(good).unwrap().scenario.threads as u64, good);
    }
}

/// One program object per kind, every field at `n`.
fn programs(n: u64) -> Vec<Json> {
    let kinds: [(&str, &[&str]); 7] = [
        ("torture", &["iters", "per_tx", "pool"]),
        ("chain_ladder", &["iters", "depth"]),
        ("vsb_filler", &["iters", "lines"]),
        ("capacity_prober", &["iters", "sets", "span"]),
        ("late_commit", &["iters", "spin"]),
        ("observer", &["iters", "pool"]),
        ("evm_mint_storm", &["iters", "pool"]),
    ];
    kinds
        .iter()
        .flat_map(|&(kind, fields)| {
            fields.iter().map(move |&field| {
                let mut m: BTreeMap<String, Json> = fields
                    .iter()
                    .map(|&f| (f.to_string(), Json::U64(1)))
                    .collect();
                m.insert(field.to_string(), Json::U64(n));
                m.insert("kind".into(), Json::Str(kind.into()));
                Json::Obj(m)
            })
        })
        .collect()
}

fn field_at(program: &Json, n: u64) -> String {
    let Json::Obj(m) = program else {
        unreachable!()
    };
    m.iter()
        .find(|(k, v)| k.as_str() != "kind" && v.as_u64() == Some(n))
        .map(|(k, _)| k.clone())
        .unwrap()
}

#[test]
fn zero_program_fields_are_rejected_by_name() {
    for p in programs(0) {
        let err = ProgramSpec::from_json(&p).unwrap_err();
        assert!(err.contains(&format!("'{}'", field_at(&p, 0))), "{err}");
    }
}

#[test]
fn program_fields_above_two_to_the_sixteen_are_rejected_by_name() {
    let over = MAX_PROGRAM_FIELD + 1;
    for p in programs(over) {
        let err = ProgramSpec::from_json(&p).unwrap_err();
        assert!(err.contains(&format!("'{}'", field_at(&p, over))), "{err}");
    }
}

#[test]
fn program_fields_at_the_bounds_decode_and_build() {
    for p in programs(1) {
        let _ = ProgramSpec::from_json(&p).unwrap().build();
    }
    for p in programs(MAX_PROGRAM_FIELD) {
        let field = field_at(&p, MAX_PROGRAM_FIELD);
        match ProgramSpec::from_json(&p) {
            Ok(spec) => {
                let _ = spec.build();
            }
            // The one field capped lower than 2^16: the EVM account pool.
            Err(err) => assert!(
                err.contains("'pool'") && err.contains("accounts") && field == "pool",
                "{err}"
            ),
        }
    }
}

#[test]
fn an_evm_pool_beyond_the_account_space_is_rejected() {
    let pool = |n: u64| {
        let mut m = BTreeMap::new();
        m.insert("kind".to_string(), Json::Str("evm_mint_storm".into()));
        m.insert("iters".to_string(), Json::U64(1));
        m.insert("pool".to_string(), Json::U64(n));
        ProgramSpec::from_json(&Json::Obj(m))
    };
    let accounts = chats_evm::storage::StateLayout::standard().accounts;
    assert!(pool(accounts).is_ok());
    let err = pool(accounts + 1).unwrap_err();
    assert!(err.contains("'pool'"), "{err}");
}

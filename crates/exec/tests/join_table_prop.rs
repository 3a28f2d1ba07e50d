//! Property tests for `JoinTable`: whichever index a key column gets
//! (direct-addressed Int, hashed Int, or `Value`-keyed), probing it
//! returns exactly what a nested loop over the build keys under
//! `Value::eq` returns, in ascending build position. NULL keys are never
//! stored and never match.

use basilisk_exec::JoinTable;
use basilisk_storage::{Column, ColumnBuilder};
use basilisk_types::{DataType, Value};
use proptest::prelude::*;

fn column(dtype: DataType, cells: &[Value]) -> Column {
    let mut b = ColumnBuilder::new(dtype);
    for v in cells {
        b.push(v.clone()).unwrap();
    }
    b.finish()
}

/// Build row of build entry `j`: strictly increasing and not the
/// identity, so the table must apply the mapping and keep its order.
fn row_of(j: usize) -> u32 {
    3 * j as u32 + 1
}

/// Build `build`, probe it with every entry of `probe` both ways, and
/// compare against the nested-loop join.
fn check(build: (DataType, Vec<Value>), probe: (DataType, Vec<Value>)) {
    let (build_col, probe_col) = (column(build.0, &build.1), column(probe.0, &probe.1));
    let table = JoinTable::build(&build_col, row_of);
    let stored: Vec<&Value> = build.1.iter().filter(|v| !v.is_null()).collect();
    assert_eq!(table.num_rows(), stored.len());
    let mut distinct: Vec<&Value> = Vec::new();
    for v in stored {
        if !distinct.contains(&v) {
            distinct.push(v);
        }
    }
    assert_eq!(table.num_keys(), distinct.len());
    for (j, key) in probe.1.iter().enumerate() {
        let expected: Vec<u32> = build
            .1
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_null() && *b == key)
            .map(|(i, _)| row_of(i))
            .collect();
        assert_eq!(table.probe_at(&probe_col, j), expected, "probe {key:?}");
        assert_eq!(table.probe(key), expected, "probe {key:?} as a value");
        if key.is_null() {
            assert!(expected.is_empty());
        }
    }
    assert_eq!(table.probe(&Value::Null), &[] as &[u32]);
}

/// Int cells drawn from `keys`, a quarter of them NULL.
fn ints(keys: impl Strategy<Value = i64>) -> impl Strategy<Value = (DataType, Vec<Value>)> {
    proptest::collection::vec(proptest::option::of(keys), 0..80).prop_map(|cells| {
        let values = cells.into_iter().map(|c| c.map_or(Value::Null, Value::Int));
        (DataType::Int, values.collect())
    })
}

/// Int key columns of every shape the table distinguishes: dense and
/// sparse spans, negative keys, spans pressed against either end of
/// `i64`, and columns holding both `i64::MIN` and `i64::MAX`.
fn int_keys() -> impl Strategy<Value = (DataType, Vec<Value>)> {
    prop_oneof![
        ints(0i64..=40).boxed(),
        ints(-60i64..=-20).boxed(),
        ints(-1_000_000i64..=1_000_000).boxed(),
        ints(prop_oneof![any::<i64>(), -4i64..=4]).boxed(),
        ints(i64::MAX - 30..=i64::MAX).boxed(),
        ints(i64::MIN..=i64::MIN + 30).boxed(),
        ints(prop_oneof![Just(i64::MIN), Just(i64::MAX), -3i64..=3])
            .prop_map(|(dt, mut v)| {
                v.extend([Value::Int(i64::MAX), Value::Null, Value::Int(i64::MIN)]);
                (dt, v)
            })
            .boxed(),
    ]
}

/// Floats that `==` and `Value::eq` disagree on: both zeros, NaNs with
/// different bit patterns, and integral values an Int key might equal.
fn float_keys() -> impl Strategy<Value = (DataType, Vec<Value>)> {
    let key = prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        Just(f64::from_bits(0x7ff8_0000_0000_0001)),
        Just(f64::from_bits(0xfff8_0000_0000_0000)),
        Just(1.0),
        Just(2.0),
        -2.0f64..2.0,
    ];
    proptest::collection::vec(proptest::option::of(key), 0..60).prop_map(|cells| {
        let values = cells
            .into_iter()
            .map(|c| c.map_or(Value::Null, Value::Float));
        (DataType::Float, values.collect())
    })
}

fn str_keys() -> impl Strategy<Value = (DataType, Vec<Value>)> {
    let key = prop_oneof!["[a-c]{0,2}", Just("1".to_string())];
    proptest::collection::vec(proptest::option::of(key), 0..60).prop_map(|cells| {
        let values = cells.into_iter().map(|c| c.map_or(Value::Null, Value::Str));
        (DataType::Str, values.collect())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn int_keys_match_nested_loop(build in int_keys(), probe in int_keys()) {
        check(build.clone(), build.clone());
        check(build, probe);
    }

    #[test]
    fn int_tables_never_match_other_types(
        build in ints(-2i64..=2),
        floats in float_keys(),
        strs in str_keys(),
    ) {
        check(build.clone(), floats.clone());
        check(build.clone(), strs);
        check(floats, build);
    }

    #[test]
    fn float_keys_match_by_bits(build in float_keys(), probe in float_keys()) {
        check(build.clone(), build.clone());
        check(build, probe);
    }

    #[test]
    fn str_keys_match_nested_loop(build in str_keys(), probe in str_keys()) {
        check(build.clone(), build.clone());
        check(build, probe);
    }
}

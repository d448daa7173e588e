//! Generated inputs reach every law of the operator table.
//!
//! A law of `alive_smt`'s `BvOp` table earns its place only if the
//! transforms the fuzzer generates exercise it too, not just the corpus
//! entry it was written for. This encodes generated transforms at every
//! typing, the way the verifier does, and requires each law to fire.

use alive_fuzz::{gen_case, GenConfig};
use alive_smt::{BvOp, TermPool};
use alive_typeck::{enumerate_typings, TypeckConfig};
use alive_vcgen::encode_transform;
use std::collections::BTreeMap;

#[test]
fn generated_transforms_fire_every_law() {
    let laws: Vec<&str> = BvOp::ALL
        .iter()
        .flat_map(|op| op.def().laws.iter().map(|law| law.name))
        .collect();
    let cfg = GenConfig::default();
    let mut fired: BTreeMap<&str, u64> = BTreeMap::new();
    for index in 0..2_000 {
        let t = gen_case(7, index, &cfg);
        let Ok(typings) = enumerate_typings(&t, &TypeckConfig::fast()) else {
            continue;
        };
        for typing in &typings {
            let mut pool = TermPool::new();
            if encode_transform(&mut pool, &t, typing).is_ok() {
                for (&law, &n) in pool.law_firings() {
                    *fired.entry(law).or_insert(0) += n;
                }
            }
        }
        if laws.iter().all(|law| fired.contains_key(law)) {
            return;
        }
    }
    let missing: Vec<&&str> = laws.iter().filter(|l| !fired.contains_key(*l)).collect();
    panic!("laws no generated input fired: {missing:?} (fired: {fired:?})");
}

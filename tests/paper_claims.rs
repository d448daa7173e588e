//! Checks of specific claims and worked examples from the paper text,
//! beyond the numbered tables and figures.

use alive::smt::{Budget, EfConfig};
use alive::{
    parse_transform, verify, verify_with_certificates, TypeckConfig, Verdict, VerifyConfig,
};

/// §1: the introductory InstCombine example, both abstract (constant C)
/// and with the concrete constant 3333 the paper shows in LLVM IR.
#[test]
fn section1_intro_example() {
    let abstract_form =
        parse_transform("%1 = xor %x, -1\n%2 = add %1, C\n=>\n%2 = sub C-1, %x").unwrap();
    assert!(verify(&abstract_form, &VerifyConfig::default())
        .unwrap()
        .is_valid());

    let concrete =
        parse_transform("%1 = xor i32 %x, -1\n%2 = add i32 %1, 3333\n=>\n%2 = sub i32 3332, %x")
            .unwrap();
    assert!(verify(&concrete, &VerifyConfig::default())
        .unwrap()
        .is_valid());
}

/// §2.4: "(x + 1) > x ==> true", valid only because of nsw.
#[test]
fn section24_nsw_example() {
    let with_nsw =
        parse_transform("%1 = add nsw %x, 1\n%2 = icmp sgt %1, %x\n=>\n%2 = true").unwrap();
    assert!(verify(&with_nsw, &VerifyConfig::fast()).unwrap().is_valid());

    let without_nsw =
        parse_transform("%1 = add %x, 1\n%2 = icmp sgt %1, %x\n=>\n%2 = true").unwrap();
    assert!(verify(&without_nsw, &VerifyConfig::fast())
        .unwrap()
        .is_invalid());
}

/// §3.1.3: the shl-nsw/ashr worked example with precondition C1 u>= C2.
#[test]
fn section313_shl_ashr_example() {
    let t = parse_transform(
        "Pre: C1 u>= C2\n%0 = shl nsw i8 %a, C1\n%1 = ashr %0, C2\n=>\n%1 = shl nsw %a, C1-C2",
    )
    .unwrap();
    assert!(verify(&t, &VerifyConfig::fast()).unwrap().is_valid());
    // Without the precondition the subtraction wraps and the claim fails.
    let no_pre =
        parse_transform("%0 = shl nsw i8 %a, C1\n%1 = ashr %0, C2\n=>\n%1 = shl nsw %a, C1-C2")
            .unwrap();
    assert!(verify(&no_pre, &VerifyConfig::fast()).unwrap().is_invalid());
}

/// §3.1.3: the select-undef example with the ∀u2 ∃u1 quantifier structure.
#[test]
fn section313_undef_quantifier_example() {
    let t = parse_transform("%r = select undef, i4 -1, 0\n=>\n%r = ashr undef, 3").unwrap();
    assert!(verify(&t, &VerifyConfig::fast()).unwrap().is_valid());
}

/// Fig. 4(c): `or i8 1, undef` only yields odd values, so refining it to a
/// bare undef (which can be even) is wrong — while refining it to the
/// constant 1 is fine.
#[test]
fn figure4_undef_semantics() {
    let bad = parse_transform("%z = or i8 1, undef\n=>\n%z = undef").unwrap();
    assert!(verify(&bad, &VerifyConfig::fast()).unwrap().is_invalid());

    let good = parse_transform("%z = or i8 1, undef\n=>\n%z = 1").unwrap();
    assert!(verify(&good, &VerifyConfig::fast()).unwrap().is_valid());

    // Fig. 4(a): xor undef, undef can be refined to any constant — the two
    // occurrences are independent.
    let xor = parse_transform("%z = xor i8 undef, undef\n=>\n%z = 7").unwrap();
    assert!(verify(&xor, &VerifyConfig::fast()).unwrap().is_valid());
}

/// §2.5 / §3.3: loads from uninitialized stack memory return undef, so
/// the load can be refined to any fixed constant.
#[test]
fn uninitialized_alloca_load_is_undef() {
    let t = parse_transform("%p = alloca i8, 1\n%v = load %p\n=>\n%v = 0").unwrap();
    assert!(verify(&t, &VerifyConfig::fast()).unwrap().is_valid());
}

/// §6.2: the prevented-bug workflow — an initially wrong patch is caught,
/// its fix verifies (we use PR21255 as the stand-in patch).
#[test]
fn section62_patch_review_workflow() {
    let patch_v1 = alive::suite::by_name("PR21255").unwrap();
    let v1 = verify(&patch_v1.transform, &VerifyConfig::fast()).unwrap();
    let Verdict::Invalid(cex) = v1 else {
        panic!("v1 must be rejected")
    };
    // The counterexample points at a concrete overflow of C2 << C1.
    assert!(!cex.bindings.is_empty());

    let patch_v2 = alive::suite::by_name("PR21255-fixed").unwrap();
    assert!(verify(&patch_v2.transform, &VerifyConfig::fast())
        .unwrap()
        .is_valid());
}

/// Table 2 constraints are exercised end to end: each attribute's poison
/// condition distinguishes an otherwise identical rewrite.
#[test]
fn table2_attribute_semantics_end_to_end() {
    // Dropping flags is always legal.
    for (src, tgt) in [
        ("add nsw", "add"),
        ("add nuw", "add"),
        ("sub nsw", "sub"),
        ("sub nuw", "sub"),
        ("mul nsw", "mul"),
        ("mul nuw", "mul"),
        ("shl nsw", "shl"),
        ("shl nuw", "shl"),
    ] {
        let t = parse_transform(&format!("%r = {src} %x, %y\n=>\n%r = {tgt} %x, %y")).unwrap();
        assert!(
            verify(&t, &VerifyConfig::fast()).unwrap().is_valid(),
            "{src} -> {tgt}"
        );
        // Adding them out of thin air is not.
        let t = parse_transform(&format!("%r = {tgt} %x, %y\n=>\n%r = {src} %x, %y")).unwrap();
        assert!(
            verify(&t, &VerifyConfig::fast()).unwrap().is_invalid(),
            "{tgt} -> {src}"
        );
    }
    for (src, tgt) in [("udiv exact", "udiv"), ("sdiv exact", "sdiv")] {
        let t = parse_transform(&format!("%r = {src} %x, %y\n=>\n%r = {tgt} %x, %y")).unwrap();
        assert!(verify(&t, &VerifyConfig::fast()).unwrap().is_valid());
    }
}

/// Table 1 definedness is exercised end to end: rewrites justified only by
/// source UB are accepted; target-side UB introduction is rejected.
#[test]
fn table1_definedness_end_to_end() {
    // x/x == 1 relies on x != 0 being UB in the source.
    let t = parse_transform("%r = udiv %x, %x\n=>\n%r = 1").unwrap();
    assert!(verify(&t, &VerifyConfig::fast()).unwrap().is_valid());

    // srem INT_MIN, -1 is UB: the negated-divisor rewrite needs C != -1.
    let t = parse_transform("Pre: C != -1\n%r = srem %X, -C\n=>\n%r = srem %X, C").unwrap();
    assert!(verify(&t, &VerifyConfig::fast()).unwrap().is_valid());
    let t = parse_transform("%r = srem %X, -C\n=>\n%r = srem %X, C").unwrap();
    assert!(verify(&t, &VerifyConfig::fast()).unwrap().is_invalid());
}

/// §6.1: the paper limits widths because mul/div queries "can take several
/// hours or longer" at larger widths. Ring identities need no such limit:
/// the word-level ring normal form decides them before bit-blasting, so
/// they verify with no SAT search at i16, i32 and i64 under a 50-conflict
/// budget with no retries.
#[test]
fn section61_ring_identities_verify_at_every_width_without_search() {
    for name in [
        "MulDivRem:MulConstChain",
        "MulDivRem:MulThenShl",
        "MulDivRem:UdivMulSubToUrem",
        "MulDivRem:SdivMulSubToSrem",
    ] {
        let entry = alive::suite::by_name(name).expect("corpus entry");
        for w in [16, 32, 64] {
            let config = VerifyConfig {
                typeck: TypeckConfig {
                    widths: vec![w],
                    ..TypeckConfig::default()
                },
                ef: EfConfig {
                    budget: Budget::default().with_conflicts(50),
                    ..EfConfig::default()
                },
            };
            let (verdict, stats, _) = verify_with_certificates(&entry.transform, &config).unwrap();
            assert!(verdict.is_valid(), "{name} at i{w}: {verdict}");
            assert_eq!(stats.sat.conflicts, 0, "{name} at i{w}");
        }
    }
}

//! §6.1 (verification time) reproduction.
//!
//! The paper: "Alive usually takes a few seconds to verify the correctness
//! of a transformation ... for some transformations involving
//! multiplication and division instructions, Alive can take several hours
//! or longer to verify the larger bitwidths", which the authors work
//! around by limiting operand bitwidths. This binary measures verification
//! time for representative optimizations per category at growing widths;
//! the expected shape is that mul/div verification cost grows much faster
//! with width than bitwise/add/shift verification.
//!
//! Run with: `cargo run --release -p bench --bin verify_times [max_width]`

use alive::smt::{Budget, EfConfig};
use alive::{verify, TypeckConfig, VerifyConfig};
use std::io::Write;
use std::time::Instant;

fn main() {
    let max_width: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(24);
    let widths: Vec<u32> = [4u32, 8, 12, 16, 20, 24, 32]
        .into_iter()
        .filter(|w| *w <= max_width)
        .collect();

    // One representative per instruction category.
    let cases = [
        ("bitwise (AndOrXor:DeMorganAnd)", "AndOrXor:DeMorganAnd"),
        ("add/sub (AddSub:NotIntro)", "AddSub:NotIntro"),
        ("shift (Shifts:ShlNswAshr)", "Shifts:ShlNswAshr"),
        ("mul (PR21242-fixed)", "PR21242-fixed"),
        ("div (MulDivRem:SDivSelf)", "MulDivRem:SDivSelf"),
        ("div-chain (PR21245-fixed)", "PR21245-fixed"),
    ];

    print!("{:34}", "optimization \\ width");
    for w in &widths {
        print!(" {:>9}", format!("i{w}"));
    }
    println!();

    for (label, name) in cases {
        let entry = alive::suite::by_name(name).expect("corpus entry");
        print!("{label:34}");
        for &w in &widths {
            // A conflict budget keeps pathological mul/div queries from
            // running for hours (the paper's own observation); exhausted
            // budgets print as "timeout".
            let config = VerifyConfig {
                typeck: TypeckConfig {
                    widths: vec![w],
                    ..TypeckConfig::default()
                },
                ef: EfConfig {
                    budget: Budget::default().with_conflicts(300_000),
                    ..EfConfig::default()
                },
            };
            let start = Instant::now();
            let v = verify(&entry.transform, &config);
            let dt = start.elapsed();
            match v {
                Ok(v) if v.is_valid() => print!(" {:>8.2?}", dt),
                Ok(alive::Verdict::Unknown { .. }) => print!(" {:>9}", "timeout"),
                Ok(_) => print!(" {:>9}", "cex!"),
                Err(_) => print!(" {:>9}", "n/a"),
            }
            let _ = std::io::stdout().flush();
        }
        println!();
    }
    println!(
        "\nexpected shape (paper §6.1): seconds at small widths everywhere; \
         mul/div cost grows sharply with width, which the paper works around \
         by bounding operand bitwidths"
    );
}

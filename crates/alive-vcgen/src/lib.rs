//! Verification-condition generation for Alive transformations.
//!
//! This crate turns an Alive transformation plus one concrete type
//! assignment into SMT terms: per-value results (ι), definedness
//! constraints (δ, Table 1 of the paper), poison-freedom constraints
//! (ρ, Table 2), `undef` variable sets (U / Ū), the encoded precondition
//! (φ, with must-analysis side conditions), and the eager memory encoding
//! of §3.3.3.
//!
//! The downstream `alive-verifier` crate assembles these pieces into the
//! refinement checks of §3.1.2.
//!
//! # Examples
//!
//! ```
//! use alive_ir::parse_transform;
//! use alive_typeck::{enumerate_typings, TypeckConfig};
//! use alive_smt::TermPool;
//! use alive_vcgen::encode_transform;
//!
//! let t = parse_transform("%1 = xor %x, -1\n%2 = add %1, C\n=>\n%2 = sub C-1, %x").unwrap();
//! let typing = &enumerate_typings(&t, &TypeckConfig::fast()).unwrap()[0];
//! let mut pool = TermPool::new();
//! let enc = encode_transform(&mut pool, &t, typing).unwrap();
//! assert!(enc.src.values.contains_key("2"));
//! assert!(enc.tgt.values.contains_key("2"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cexpr;
mod encode;
pub mod semantics;

pub use cexpr::{encode_cexpr, encode_pred, EncodeError, EncodedPred, NameEnv};
pub use encode::{encode_transform, BaseMemory, MemState, StoreEntry, TemplateEnc, TransformEnc};

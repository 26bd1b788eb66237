//! Data-structure substrates used by the linear-time algorithms.
//!
//! Two structures live here, one per algorithm that needs more than the
//! parse tree and its LCA oracle:
//!
//! * **lowest colored ancestor** queries (Section 4.1) — given a node
//!   coloring of the parse tree, find the lowest ancestor of a position that
//!   carries a given color: [`ColoredAncestors`]. Its `O(log k_a)` binary
//!   search stands in for the paper's `O(log log |e|)` structure; see
//!   `DESIGN.md`, "Substitution ¹", for why;
//! * **dynamic LCA-closed skeleta** (Section 4.4) — the per-symbol pending
//!   structures that let the star-free batch matcher touch every parked
//!   word `O(1)` times, reaching the `O(|e| + Σ|wᵢ|)` bound of
//!   Theorem 4.12: [`BatchSkeleta`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch_skeleton;
pub mod colored;

pub use batch_skeleton::BatchSkeleta;
pub use colored::ColoredAncestors;

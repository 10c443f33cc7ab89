//! Automata operations: determinization, minimization, products,
//! state elimination, and language decision procedures.

pub mod canonical;
pub mod eliminate;
pub mod language;
pub mod minimize;
pub mod product;
pub mod relevance;
pub mod subset;

pub use canonical::{language_key, LanguageKey};
pub use eliminate::{dfa_to_regex, dfa_to_regex_with_order, language_reaching, EliminationOrder};
pub use language::{check_equivalent, difference_witness, is_equivalent, is_subset, regex_to_dfa};
pub use minimize::minimize;
pub use product::{full_product, lazy_product, lazy_product_pruned, product2, Product};
pub use relevance::{ProductState, RelevanceProduct};
pub use subset::determinize;

//! Parallel reductions over vertex values (aggregator support).
//!
//! Pregel's aggregators let the master observe global state between
//! supersteps. The paper's applications don't need them, but its
//! conclusion lists richer control as future work; this module provides
//! the building block: an associative parallel reduction over the value
//! array, usable inside [`crate::VertexProgram::master_compute`] to
//! implement convergence tests, global minima, counts, etc.

use ipregel_par::prelude::*;

/// Reduce `values` with `map` then the associative `fold` (identity-less;
/// returns `None` on empty input).
pub fn aggregate<V, T, M, F>(values: &[V], map: M, fold: F) -> Option<T>
where
    V: Sync,
    T: Send,
    M: Fn(&V) -> T + Sync,
    F: Fn(T, T) -> T + Sync,
{
    values.par_iter().map(&map).reduce_with(&fold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_none() {
        let vals: Vec<u32> = Vec::new();
        assert_eq!(aggregate(&vals, |&v| v, std::cmp::min), None);
    }

    #[test]
    fn aggregate_is_order_insensitive_for_assoc_ops() {
        let vals: Vec<u64> = (0..10_000).collect();
        let total = aggregate(&vals, |&v| v, |a, b| a + b).unwrap();
        assert_eq!(total, 10_000 * 9_999 / 2);
    }
}

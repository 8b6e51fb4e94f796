//! Property test: the data-parallel layer agrees with the sequential
//! reference for arbitrary inputs and worker counts, bitwise.

use demt_exec::Pool;
use proptest::prelude::*;

proptest! {
    #[test]
    fn par_map_matches_sequential_map(
        items in prop::collection::vec(-1e6f64..1e6, 0..120),
        workers in 1usize..6,
    ) {
        let pool = Pool::new(workers);
        let par = pool.par_map(&items, |i, &x| x * 1.5 + i as f64);
        let seq: Vec<f64> = items.iter().enumerate().map(|(i, &x)| x * 1.5 + i as f64).collect();
        prop_assert_eq!(par, seq);
    }
}

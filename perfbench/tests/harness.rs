//! Unit tests of the benchmark's own arithmetic and input generation.

use demt_perfbench::reference::{HostClock, Reference, NOMINAL_UNIT_NS};
use demt_perfbench::runner::{glue_share, Workload};
use demt_perfbench::stats::{nearest_rank, percentile, percentiles, MIN_OPS};
use demt_perfbench::trace::{span, Tracer};
use demt_perfbench::{cli_json, paper_offline, replay_easy, serve_moldable};

#[test]
fn nearest_rank_leaves_ten_samples_above_p99_at_the_minimum() {
    assert_eq!(nearest_rank(MIN_OPS, 99), 990);
    assert_eq!(nearest_rank(MIN_OPS, 50), 500);
    assert_eq!(nearest_rank(1, 99), 1);
    assert_eq!(nearest_rank(101, 50), 51);
    let sorted: Vec<u64> = (1..=MIN_OPS as u64).collect();
    let p99 = percentile(&sorted, 99);
    assert_eq!(p99, 990);
    assert_eq!(sorted.iter().filter(|&&v| v > p99).count(), 10);
    assert_eq!(percentile(&sorted, 50), 500);
    assert_eq!(percentile(&sorted, 100), MIN_OPS as u64);
}

#[test]
fn percentiles_sort_exact_samples_and_refuse_short_runs() {
    let mut short: Vec<u64> = (0..MIN_OPS as u64 - 1).collect();
    assert!(percentiles(&mut short).is_err());

    // Descending input: the result must not depend on sample order.
    let mut samples: Vec<u64> = (1..=2000).rev().collect();
    let p = percentiles(&mut samples).expect("2000 samples suffice");
    assert_eq!(p.samples, 2000);
    assert_eq!(p.p50_ns, 1000);
    assert_eq!(p.p99_ns, 1980);
}

#[test]
fn self_time_is_span_time_minus_direct_children() {
    let t = Tracer::new();
    t.enter_at("outer", 0);
    t.enter_at("child", 10);
    t.enter_at("grandchild", 12);
    t.exit_at(18); // grandchild: 6
    t.exit_at(30); // child: 20, self 14
    t.enter_at("child", 40);
    t.exit_at(45); // child: 5
    t.exit_at(100); // outer: 100, self 100 - 25

    let outer = t.span_totals("outer");
    assert_eq!((outer.count, outer.total_ns, outer.self_ns), (1, 100, 75));
    let child = t.span_totals("child");
    assert_eq!((child.count, child.total_ns, child.self_ns), (2, 25, 19));
    let grandchild = t.span_totals("grandchild");
    assert_eq!((grandchild.total_ns, grandchild.self_ns), (6, 6));
    // Self times partition the outermost span.
    assert_eq!(t.layer_self_ns(), 100);
    assert_eq!(t.span_totals("absent").count, 0);
}

#[test]
fn bench_spans_count_as_glue() {
    let t = Tracer::new();
    t.enter_at("layer", 0);
    t.enter_at("bench.sink", 20);
    t.exit_at(30);
    t.exit_at(80);
    assert_eq!(t.span_totals("layer").self_ns, 70);
    assert_eq!(t.layer_self_ns(), 70);
    // 100 ns of wall: 70 in the layer, 10 in the sink, 20 outside any span.
    assert!((glue_share(100, t.layer_self_ns()) - 0.3).abs() < 1e-12);
    assert_eq!(glue_share(0, 0), 0.0);
}

#[test]
fn span_records_only_when_tracing() {
    assert_eq!(span(None, "x", || 7), 7);
    let t = Tracer::new();
    assert_eq!(span(Some(&t), "x", || span(Some(&t), "y", || 8)), 8);
    assert_eq!(t.span_totals("x").count, 1);
    assert_eq!(t.span_totals("y").count, 1);
    let (x, y) = (t.span_totals("x"), t.span_totals("y"));
    assert_eq!(x.self_ns, x.total_ns - y.total_ns);
}

#[test]
fn host_factor_scales_times_to_the_nominal_host() {
    assert_eq!(HostClock::default().factor(), 1.0);
    let units = 10;
    let slow = HostClock {
        ns: (2.0 * NOMINAL_UNIT_NS) as u64 * units,
        units,
    };
    assert!((slow.factor() - 2.0).abs() < 1e-12);
    // Three wall seconds at half speed are 1.5 s of a nominal host, so
    // a rate doubles and a latency halves.
    assert!((slow.normalize(3.0) - 1.5).abs() < 1e-12);
}

#[test]
fn reference_units_repeat_their_result() {
    let r = Reference::new();
    assert_eq!(r.unit(), r.unit());
    let mut clock = HostClock::default();
    r.block(3, &mut clock)
        .expect("the reference is deterministic");
    r.block(2, &mut clock)
        .expect("the reference is deterministic");
    assert_eq!(clock.units, 5);
    assert!(clock.ns > 0);
    assert_eq!(Reference::units_for(1.0, 0.3), 4);
    assert_eq!(Reference::units_for(0.0, 0.3), 1);
}

fn same_seed_same_inputs<W: Workload>() {
    let digest = |seed| W::setup(seed).expect("set-up succeeds").input_digest();
    assert_eq!(digest(7), digest(7));
    assert_ne!(digest(7), digest(8));
}

#[test]
fn paper_offline_inputs_follow_the_seed() {
    same_seed_same_inputs::<paper_offline::PaperOffline>();
}

#[test]
fn serve_moldable_inputs_follow_the_seed() {
    same_seed_same_inputs::<serve_moldable::ServeMoldable>();
}

#[test]
fn replay_easy_inputs_follow_the_seed() {
    same_seed_same_inputs::<replay_easy::ReplayEasy>();
}

#[test]
fn cli_json_inputs_follow_the_seed() {
    same_seed_same_inputs::<cli_json::CliJson>();
}

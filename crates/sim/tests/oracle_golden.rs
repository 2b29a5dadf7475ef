//! Golden `OracleReport`s: two small `run_oracle` runs pinned field by
//! field, floats by bit pattern.
//!
//! The other oracle tests compare a run with its own rerun, which cannot
//! see a change that is deterministic but different — a reordered float
//! accumulation, a tie broken the other way in the planner, a latency
//! rounded differently. These strings were recorded before the directory,
//! the planner and the latency model were restructured for speed; any
//! optimisation of that path must reproduce them exactly.

use peerwindow_sim::{run_oracle, NetworkConfig, OracleConfig, OracleReport};
use peerwindow_topology::TransitStubParams;

/// Short windows, a fast adaptation tick and ten-times-shorter lifetimes
/// than the warm start assumed, so that joins, leaves, info changes *and*
/// level shifts (several levels deep) all multicast inside the measured
/// window.
fn short(mut base: OracleConfig) -> OracleConfig {
    base.churn.lifetime_rate = 0.1;
    OracleConfig {
        warmup_s: 20.0,
        measure_s: 60.0,
        adapt_interval_s: 15.0,
        sample_interval_s: 10.0,
        ..base
    }
}

fn render(r: &OracleReport) -> String {
    format!(
        "events {}\ndeliveries {}\nn_final {}\nlevel_shifts {}\n\
         avg_error_rate {:#018x}\nmean_multicast_delay_s {:#018x}\n\
         rows {:?}\nshift_counters {:?}\n",
        r.events,
        r.deliveries,
        r.n_final,
        r.level_shifts,
        r.avg_error_rate.to_bits(),
        r.mean_multicast_delay_s.to_bits(),
        r.rows,
        r.shift_counters,
    )
}

const UNIFORM_2000_SEED_7: &str = "\
     events 531\n\
     deliveries 913300\n\
     n_final 2037\n\
     level_shifts 60\n\
     avg_error_rate 0x3fa723bee5ccdeeb\n\
     mean_multicast_delay_s 0x40302b452d2636de\n\
     rows [LevelRow { level: 0, nodes: 1636.0, node_fraction: 0.8112396694214876, list_min: 2007.0, list_mean: 2015.6666666666667, list_max: 2028.0, error_rate: 0.04506035530476073, in_bps: 9597.187421383649, out_bps: 9916.076526678838 }, LevelRow { level: 1, nodes: 97.16666666666667, node_fraction: 0.04818181818181818, list_min: 990.0, list_mean: 1007.3333333333334, list_max: 1027.0, error_rate: 0.04739125587938542, in_bps: 4612.320000000001, out_bps: 1362.0633333333333 }, LevelRow { level: 2, nodes: 75.83333333333333, node_fraction: 0.03760330578512396, list_min: 467.0, list_mean: 503.16666666666663, list_max: 538.0, error_rate: 0.04765148725024594, in_bps: 2349.234188034188, out_bps: 308.6931623931624 }, LevelRow { level: 3, nodes: 77.0, node_fraction: 0.03818181818181818, list_min: 215.0, list_mean: 251.08333333333331, list_max: 289.0, error_rate: 0.04967291251610376, in_bps: 1201.07094017094, out_bps: 223.61452991452992 }, LevelRow { level: 4, nodes: 113.83333333333333, node_fraction: 0.056446280991735535, list_min: 102.0, list_mean: 125.04166666666666, list_max: 155.0, error_rate: 0.0484161677584824, in_bps: 624.8248366013072, out_bps: 137.45098039215685 }, LevelRow { level: 5, nodes: 16.833333333333332, node_fraction: 0.008347107438016529, list_min: 43.0, list_mean: 64.31914893617022, list_max: 84.0, error_rate: 0.04539426763933919, in_bps: 498.1296296296296, out_bps: 103.10185185185185 }]\n\
     shift_counters [(\"oracle.shift.0->1\", 9), (\"oracle.shift.1->2\", 6), (\"oracle.shift.2->3\", 6), (\"oracle.shift.3->4\", 8), (\"oracle.shift.4->5\", 31)]\n\
     ";

const TRANSIT_STUB_SMALL_2000_SEED_20050614: &str = "\
     events 470\n\
     deliveries 809081\n\
     n_final 1986\n\
     level_shifts 32\n\
     avg_error_rate 0x3fa7c7d7e7736950\n\
     mean_multicast_delay_s 0x403270a00becbd4d\n\
     rows [LevelRow { level: 0, nodes: 1646.5, node_fraction: 0.819765994523276, list_min: 1995.0, list_mean: 2007.5, list_max: 2021.0, error_rate: 0.046354753519678715, in_bps: 8570.705759803921, out_bps: 8900.191299019609 }, LevelRow { level: 1, nodes: 83.5, node_fraction: 0.041573313417973615, list_min: 972.0, list_mean: 1003.25, list_max: 1036.0, error_rate: 0.04910678501355127, in_bps: 3925.4444444444443, out_bps: 589.1481481481482 }, LevelRow { level: 2, nodes: 64.66666666666667, node_fraction: 0.03219649821591569, list_min: 444.0, list_mean: 501.12500000000006, list_max: 534.0, error_rate: 0.047164475796476084, in_bps: 2041.4765027322403, out_bps: 296.1224043715847 }, LevelRow { level: 3, nodes: 93.5, node_fraction: 0.046552153348269856, list_min: 217.0, list_mean: 250.06249999999997, list_max: 289.0, error_rate: 0.048615979129646665, in_bps: 1049.8709677419356, out_bps: 181.34480286738352 }, LevelRow { level: 4, nodes: 112.33333333333333, node_fraction: 0.05592896855032777, list_min: 105.0, list_mean: 124.53125000000001, list_max: 147.0, error_rate: 0.046668510158993835, in_bps: 528.3042904290429, out_bps: 122.1003300330033 }, LevelRow { level: 5, nodes: 8.0, node_fraction: 0.003983071944236993, list_min: 47.0, list_mean: 64.26470588235294, list_max: 75.0, error_rate: 0.05286877180148243, in_bps: 563.7851851851851, out_bps: 109.53703703703704 }]\n\
     shift_counters [(\"oracle.shift.1->2\", 1), (\"oracle.shift.2->3\", 7), (\"oracle.shift.3->4\", 5), (\"oracle.shift.4->5\", 19)]\n\
     ";

#[test]
fn uniform_net_2000_nodes_seed_7() {
    let report = run_oracle(short(OracleConfig::paper_common_uniform(2_000, 7)));
    assert!(report.level_shifts > 0, "the run must cover Shift events");
    assert_eq!(render(&report), UNIFORM_2000_SEED_7);
}

#[test]
fn transit_stub_small_2000_nodes_seed_20050614() {
    let seed = 20050614;
    let report = run_oracle(short(OracleConfig {
        network: NetworkConfig::TransitStub {
            params: TransitStubParams::small(),
            seed,
        },
        ..OracleConfig::paper_common(2_000, seed)
    }));
    assert!(report.level_shifts > 0, "the run must cover Shift events");
    assert_eq!(render(&report), TRANSIT_STUB_SMALL_2000_SEED_20050614);
}

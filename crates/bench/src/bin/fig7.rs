//! Figure 7 (a–f): timing of individual operations — sorting, histogram,
//! 2-D histogram — in the In-Compute-Node vs Staging configurations,
//! over the GTC weak-scaling sweep.
//!
//! Paper shape targets: staged sorting stays ≤ ~33 s at all scales while
//! its latency (~50 s including the fetch) is two orders of magnitude
//! above the in-compute operation time; histograms are
//! computation-dominant with the in-compute configuration paying a
//! variable 0.25–7 s result-file write.

use predata_bench::{gtc_config, maybe_json, print_table, GTC_SCALES};
use simhec::scenario::OpKind;
use simhec::{Placement, StagedRun};

fn main() {
    let mut json = serde_json::Map::new();
    for (fig, op) in [
        ("7a/7d", OpKind::Sort),
        ("7b/7e", OpKind::Histogram),
        ("7c/7f", OpKind::Histogram2D),
    ] {
        let mut rows = Vec::new();
        let mut series = Vec::new();
        for &cores in &GTC_SCALES {
            let innode = StagedRun::best_of(&gtc_config(cores, Placement::InComputeNode), 5);
            let staged = StagedRun::best_of(&gtc_config(cores, Placement::Staging), 5);
            let i = innode.ops.iter().find(|o| o.op == op).expect("op present");
            let s = staged.ops.iter().find(|o| o.op == op).expect("op present");
            rows.push(format!(
                "{cores:>7} | {:>10.2} {:>10.2} {:>9.2} | {:>10.2} {:>10.2} {:>9.2}",
                i.busy_time,
                i.latency,
                i.result_write_time,
                s.busy_time,
                s.latency,
                s.result_write_time
            ));
            series.push(serde_json::json!({
                "cores": cores,
                "in_compute": serde_json::json!({"busy_s": i.busy_time, "latency_s": i.latency}),
                "staging": serde_json::json!({"busy_s": s.busy_time, "latency_s": s.latency}),
            }));
        }
        print_table(
            &format!("Fig. {fig}: {} operation (GTC, per dump)", op.name()),
            "  cores |  IC busy(s)  IC lat(s)  IC wr(s) |  ST busy(s)  ST lat(s)  ST wr(s)",
            &rows,
        );
        json.insert(op.name().to_string(), serde_json::Value::Array(series));
    }
    println!(
        "\nKey claims: staged sort busy ≤ 33 s at every scale; staged latency ≫ in-compute\n\
         time (capacity mismatch); in-compute histogram cost includes the 0.25–7 s result\n\
         write that staging hides."
    );
    maybe_json("fig7", &serde_json::Value::Object(json));
}

//! Every workload at toy scale, in-process: its correctness checks pass,
//! no operation fails, and it reports exactly the metrics
//! `BENCHMARK.json` names, all finite.

use interop_e2e::json::{self, Json};
use interop_e2e::{run, RunOpts, Scale, PER_LAYER, WORKLOADS};

fn names(bench: &Json, key: &str) -> Vec<String> {
    bench
        .get(key)
        .map_or(&[][..], Json::as_array)
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_owned))
        .collect()
}

#[test]
fn every_workload_runs_correctly_at_toy_scale() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bench = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    assert_eq!(names(&bench, "workloads"), WORKLOADS);
    let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
    assert_eq!(names(&bench, "per_layer"), layers);
    let end_to_end = names(&bench, "end_to_end");

    for workload in WORKLOADS {
        for trace in [false, true] {
            let opts = RunOpts {
                seed: 7,
                seconds: 0.3,
                trace,
                scale: Scale::Toy,
            };
            let r = run(workload, opts).unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(r.correct(), "{workload}: {:?}", r.checks);
            assert!(r.attempted > 0, "{workload}: nothing attempted");
            assert_eq!(r.failed, 0, "{workload}: error rate must be 0");
            let metrics = if trace { r.per_layer() } else { r.end_to_end };
            let got: Vec<&str> = metrics.iter().map(|m| m.name).collect();
            let want: Vec<&str> = if trace {
                layers.clone()
            } else {
                end_to_end.iter().map(String::as_str).collect()
            };
            assert_eq!(got, want, "{workload} (trace {trace})");
            for m in &metrics {
                assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
            }
        }
    }
}

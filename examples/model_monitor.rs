//! A model-monitoring pipeline with the streaming extension: observations
//! arrive one at a time, the incremental KS test ([`moche::stream`]) checks
//! paired sliding windows in `O(log w)` per observation, and every drift
//! alarm is answered with the most comprehensible counterfactual
//! explanation — the deployment shape the paper motivates (monitoring an
//! ML model's input feature for distribution shift).
//!
//! ```text
//! cargo run --release --example model_monitor
//! ```

// Examples narrate to stdout on purpose.
#![allow(clippy::print_stdout)]

use moche::data::dist::{normal, uniform};
use moche::data::rng::rng_from_seed;
use moche::stream::{DriftMonitor, MonitorConfig, MonitorEvent};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rng_from_seed(2021);
    let window = 150;
    let mut monitor = DriftMonitor::new(MonitorConfig::new(window, 0.05))?;

    // A "model input feature" stream: N(0, 1) in production... until a
    // upstream change at t = 1_000 injects a contaminated regime (15% of
    // points from U[-7, 7], the paper's Figure 5b construction), and a
    // full mean shift at t = 2_200.
    let total = 3_200usize;
    println!("streaming {total} observations through a {window}-wide paired-window monitor\n");
    let mut regime = "clean";
    for t in 0..total {
        let x = if t < 1_000 {
            normal(&mut rng, 0.0, 1.0)
        } else if t < 2_200 {
            if t == 1_000 {
                regime = "15% contaminated";
            }
            if uniform(&mut rng, 0.0, 1.0) < 0.15 {
                uniform(&mut rng, -7.0, 7.0)
            } else {
                normal(&mut rng, 0.0, 1.0)
            }
        } else {
            if t == 2_200 {
                regime = "mean-shifted";
            }
            normal(&mut rng, 2.5, 1.0)
        };

        match monitor.push(x) {
            MonitorEvent::Warming { .. } | MonitorEvent::Stable => {}
            MonitorEvent::Drift { outcome, explanation, .. } => {
                println!(
                    "t = {t:>5} [{regime}]: DRIFT  D = {:.3} (threshold {:.3})",
                    outcome.statistic, outcome.threshold
                );
                if let Some(e) = explanation {
                    let mean: f64 = e.values().iter().sum::<f64>() / e.size().max(1) as f64;
                    let extreme = e.values().iter().filter(|v| v.abs() > 3.0).count();
                    println!(
                        "          explanation: {} of {} window points (k_hat gap {}), \
                         mean value {:.2}, {} beyond |3σ|",
                        e.size(),
                        window,
                        e.phase1.estimation_error(),
                        mean,
                        extreme
                    );
                }
            }
        }
    }

    println!(
        "\n{} observations, {} drift alarms — each one localized to the minimal set of \
         points that caused it.",
        monitor.pushes(),
        monitor.alarms()
    );
    assert!(monitor.alarms() >= 2, "both regime changes should alarm");
    Ok(())
}

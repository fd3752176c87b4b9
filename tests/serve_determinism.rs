//! Bit-determinism suite: a frequency served over the wire is
//! bit-identical to evaluating `DrlController::decide` in-process on the
//! same snapshot — across kernel families (blocked and the naive
//! reference, selected in-process) and across micro-batch sizes
//! {1, 7, 32}.
//!
//! Three properties compose to make this hold by construction, and this
//! suite is the end-to-end check that they actually do:
//!
//! 1. the blocked kernels compute each output element with a row-count
//!    independent IEEE-754 op sequence (fl-nn's conformance suite),
//! 2. the Welford normalizer is per-element (row-independent),
//! 3. JSON round-trips finite f64 bit-exactly (shortest-round-trip
//!    printing in the vendored serde).

#[path = "serve_common.rs"]
mod common;

use common::harness::{KernelGuard, KernelKind};
use fl_ctrl::FrequencyController;
use fl_rl::snapshot::CheckpointStore;
use fl_serve::{DecisionServer, ServeClient, ServeOptions};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// In-process reference decisions at the given trace times, under the
/// currently selected kernel.
fn reference_freqs(
    sys: &fl_sim::FleetSim,
    snap: &fl_ctrl::ControllerSnapshot,
    times: &[f64],
) -> Vec<Vec<f64>> {
    let mut ctrl = snap.controller.clone();
    times
        .iter()
        .map(|&t| ctrl.decide(0, t, sys, None).unwrap())
        .collect()
}

fn assert_bits_eq(served: &[f64], expected: &[f64], ctx: &str) {
    assert_eq!(served.len(), expected.len(), "{ctx}: length");
    for (i, (s, e)) in served.iter().zip(expected).enumerate() {
        assert_eq!(
            s.to_bits(),
            e.to_bits(),
            "{ctx}: device {i}: served {s:?} != in-process {e:?}"
        );
    }
}

/// Fires `n` concurrent decide requests through their own connections
/// (barrier-released so they land inside one linger window) and checks
/// every response bit-wise against its in-process reference.
fn hammer_batch(server: &DecisionServer, rows: &[Vec<f64>], expected: &[Vec<f64>], ctx: &str) {
    let n = rows.len();
    let barrier = Arc::new(Barrier::new(n));
    let addr = server.local_addr();
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let row = rows[i].clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                barrier.wait();
                client.decide(&row).unwrap()
            })
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let (seq, freqs) = h.join().unwrap();
        assert_eq!(seq, 1, "{ctx}: request {i} served by wrong snapshot");
        assert_bits_eq(&freqs, &expected[i], &format!("{ctx}: request {i}"));
    }
}

/// The full matrix in one test: the kernel selector is process-global, so
/// the two backends must run sequentially, not as concurrent #[test]s.
#[test]
fn served_bits_match_in_process_across_kernels_and_batch_sizes() {
    let (sys, snap) = common::make_snapshot(21);
    let dir = common::temp_dir("det");
    let store = CheckpointStore::new(&dir).unwrap();
    snap.save(&store).unwrap();
    let times = common::obs_times(32);
    let rows = common::obs_rows(&sys, &times);

    for kind in [KernelKind::Blocked, KernelKind::Naive] {
        let _kernel = KernelGuard::select(kind);
        // References computed under the same kernel the server will use.
        let expected = reference_freqs(&sys, &snap, &times);
        let opts = ServeOptions {
            // A generous linger so barrier-released bursts coalesce into
            // real micro-batches.
            linger: Duration::from_millis(100),
            max_batch: 32,
            ..ServeOptions::default()
        };
        let server = DecisionServer::start(&dir, "127.0.0.1:0", opts).unwrap();
        for &n in &[1usize, 7, 32] {
            hammer_batch(
                &server,
                &rows[..n],
                &expected[..n],
                &format!("kernel {kind:?}, batch {n}"),
            );
        }
        let stats = server.shutdown();
        assert!(
            stats.max_batch_observed >= 2,
            "kernel {kind:?}: micro-batching never engaged (max batch {})",
            stats.max_batch_observed
        );
        assert_eq!(stats.decisions, 1 + 7 + 32, "kernel {kind:?}");
    }
}

/// Mixed-size sequential traffic on one connection: every answer equals
/// its singleton in-process reference regardless of what batches formed
/// around it.
#[test]
fn sequential_traffic_is_batch_size_invariant() {
    let (sys, snap) = common::make_snapshot(22);
    let dir = common::temp_dir("seq");
    let store = CheckpointStore::new(&dir).unwrap();
    snap.save(&store).unwrap();
    let times = common::obs_times(16);
    let rows = common::obs_rows(&sys, &times);
    let expected = reference_freqs(&sys, &snap, &times);

    let server = DecisionServer::start(&dir, "127.0.0.1:0", ServeOptions::default()).unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    for (i, row) in rows.iter().enumerate() {
        let (seq, freqs) = client.decide(row).unwrap();
        assert_eq!(seq, 1);
        assert_bits_eq(&freqs, &expected[i], &format!("sequential request {i}"));
    }
    // And the batched entry point agrees with the served bits directly.
    let batched = snap.decide_rows(&rows).unwrap();
    for (i, b) in batched.iter().enumerate() {
        assert_bits_eq(b, &expected[i], &format!("decide_rows row {i}"));
    }
}

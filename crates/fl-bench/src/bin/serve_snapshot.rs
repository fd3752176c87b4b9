//! Trains the 3-device testbed controller (cache-aware) and exports it as
//! a deployable [`ControllerSnapshot`] — the format `fl-serve --ckpt`
//! loads. Training checkpoints (`abl_seeds --ckpt`) are resume state, not
//! deployable snapshots; this binary is the bridge between the two worlds.
//!
//! `cargo run --release -p fl-bench --bin serve_snapshot -- --ckpt DIR [episodes]`
//!
//! Saves into the double-buffered store at `DIR` (an existing store gains
//! a new snapshot seq — a running `fl-serve --poll-ms` adopts it live).

use fl_bench::args::ParsedArgs;
use fl_bench::Scenario;
use fl_ctrl::{ControllerSnapshot, ParallelConfig};
use fl_rl::snapshot::CheckpointStore;

fn main() {
    let cli = ParsedArgs::parse(&["--ckpt"], &[]);
    let dir = cli.path("--ckpt").unwrap_or_else(|| {
        eprintln!("usage: serve_snapshot --ckpt DIR [episodes]");
        std::process::exit(2);
    });
    let episodes: usize = cli.positional_or(0, 200);

    let scenario = Scenario::testbed();
    let sys = scenario.build();
    let (ctrl, cached, _) = scenario.train_cached(
        &sys,
        &scenario.train_config(episodes),
        &ParallelConfig::SERIAL,
    );
    if cached {
        println!("serve_snapshot: reusing cached controller ({episodes} episodes)");
    } else {
        println!("serve_snapshot: trained testbed controller ({episodes} episodes)");
    }
    let snap = ControllerSnapshot::from_system(ctrl, &sys).expect("testbed snapshot is valid");
    let store = CheckpointStore::new(&dir).expect("checkpoint store");
    let seq = snap.save(&store).expect("snapshot saves");
    println!(
        "serve_snapshot: saved seq {seq} to {} (config digest {:08x}, obs_dim {}, {} devices)",
        dir.display(),
        snap.config_digest().expect("digest"),
        snap.obs_dim(),
        snap.action_dim(),
    );
}

//! Quickstart: a robust register in a dozen lines.
//!
//! Deploys the paper's safe storage twice — once in the deterministic
//! simulator (where every correctness experiment lives) and once on real
//! OS threads — and performs the same writes and reads on both.
//!
//! Run with `cargo run --example quickstart`.

use vrr::core::{run_read, run_write, RegisterProtocol, SafeProtocol, StorageConfig};
use vrr::runtime::{NoDelay, ProtocolKind, ShardedStore};
use vrr::sim::World;

fn main() {
    // Budget: tolerate t = 2 faulty base objects, of which b = 1 may be
    // Byzantine. Optimal resilience: S = 2t + b + 1 = 6 objects.
    let cfg = StorageConfig::optimal(2, 1, 1);
    println!("deploying safe storage: {cfg:?}");

    // ---- In the simulator ----------------------------------------------
    let mut world = World::new(42);
    let dep = RegisterProtocol::<String>::deploy(&SafeProtocol, cfg, &mut world);
    world.start();

    let w = run_write(&SafeProtocol, &dep, &mut world, "hello".to_string());
    println!(
        "[sim]    WRITE(\"hello\")  -> ts {:?}, {} rounds",
        w.ts, w.rounds
    );

    let r = run_read::<String, _>(&SafeProtocol, &dep, &mut world, 0);
    println!(
        "[sim]    READ()          -> {:?}, {} rounds",
        r.value, r.rounds
    );
    assert_eq!(r.value.as_deref(), Some("hello"));
    assert_eq!(r.rounds, 2, "reads always take exactly two round-trips");

    // A crash within budget changes nothing observable.
    world.crash(dep.objects[0]);
    let w = run_write(&SafeProtocol, &dep, &mut world, "world".to_string());
    let r = run_read::<String, _>(&SafeProtocol, &dep, &mut world, 0);
    println!(
        "[sim]    after one object crash: WRITE/READ -> {:?} ({} + {} rounds)",
        r.value, w.rounds, r.rounds
    );
    assert_eq!(r.value.as_deref(), Some("world"));

    // ---- On threads ------------------------------------------------------
    // One register is a one-key store: the key is `()`.
    let storage: ShardedStore<(), String> =
        ShardedStore::deploy(cfg, ProtocolKind::Safe, Box::new(NoDelay), 1);
    let started = std::time::Instant::now();
    storage.write((), "hello from threads".to_string());
    let r = storage.read(&(), 0).expect("the key is bound");
    println!(
        "[thread] WRITE + READ     -> {:?} in {:.1?} (S = {} object threads)",
        r.value,
        started.elapsed(),
        cfg.s
    );
    assert_eq!(r.value.as_deref(), Some("hello from threads"));

    println!("ok: same protocol code, two substrates.");
}

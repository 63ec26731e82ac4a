//! One site per determinism ban in `crates/clippy.toml` (DESIGN.md §11),
//! each under an `#[expect]` only that ban can fulfil: deleting an entry,
//! or one that stops resolving, fails `cargo clippy --workspace
//! --all-targets -- -D warnings` here. `cargo test` runs the sites as is.

#[test]
fn every_protocol_ban_fires() {
    #[expect(clippy::disallowed_types, reason = "fixture: DET001")]
    let _map = {
        use std::collections::HashMap as Renamed;
        Renamed::<u8, u8>::new()
    };
    #[expect(clippy::disallowed_types, reason = "fixture: DET001")]
    let _: Option<std::collections::HashSet<u8>> = None;
    #[expect(clippy::disallowed_types, reason = "fixture: DET001")]
    let _: Option<std::collections::hash_map::RandomState> = None;
    #[expect(clippy::disallowed_types, reason = "fixture: DET002")]
    let _: Option<std::time::SystemTime> = None;
    #[expect(clippy::disallowed_methods, reason = "fixture: DET002")]
    let _ = std::time::Instant::now();
    #[expect(clippy::disallowed_methods, reason = "fixture: DET002")]
    let _ = std::env::var("TOTORO_UNSET");
    #[expect(clippy::disallowed_methods, reason = "fixture: DET002")]
    let _ = std::env::var_os("TOTORO_UNSET");
    #[expect(clippy::disallowed_methods, reason = "fixture: DET002")]
    let _ = std::env::vars();
    #[expect(clippy::disallowed_methods, reason = "fixture: DET002")]
    let _ = std::env::vars_os();
    #[expect(clippy::disallowed_macros, reason = "fixture: DET003")]
    let () = println!("x");
    #[expect(clippy::disallowed_macros, reason = "fixture: DET003")]
    let () = print!("");
    #[expect(clippy::disallowed_macros, reason = "fixture: DET003")]
    let () = eprintln!("x");
    #[expect(clippy::disallowed_macros, reason = "fixture: DET003")]
    let () = eprint!("");
    // `dbg!` expands to `eprintln!`, whose entry catches it.
    #[expect(clippy::disallowed_macros, reason = "fixture: DET003")]
    let _ = dbg!(0);
    #[expect(clippy::disallowed_methods, reason = "fixture: DET006")]
    let _ = std::thread::spawn(|| ()).join();
    #[expect(clippy::disallowed_methods, reason = "fixture: DET006")]
    let () = std::thread::scope(|_| ());
    #[expect(clippy::disallowed_methods, reason = "fixture: DET006")]
    let _ = std::sync::mpsc::channel::<u8>();
    #[expect(clippy::disallowed_methods, reason = "fixture: DET006")]
    let _ = std::sync::mpsc::sync_channel::<u8>(1);
    #[expect(clippy::disallowed_types, reason = "fixture: DET006")]
    let _: Option<std::sync::mpsc::Sender<u8>> = None;
    #[expect(clippy::disallowed_types, reason = "fixture: DET006")]
    let _: Option<std::sync::mpsc::SyncSender<u8>> = None;
    #[expect(clippy::disallowed_types, reason = "fixture: DET006")]
    let _: Option<std::sync::mpsc::Receiver<u8>> = None;
    #[expect(clippy::disallowed_types, reason = "fixture: DET006")]
    let mutex = std::sync::Mutex::new(0u8);
    #[expect(clippy::disallowed_methods, reason = "fixture: DET008")]
    let _guard = mutex.lock();
}

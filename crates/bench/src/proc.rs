//! Process-tree helpers for the benches that boot real `router` and
//! `shard-server` processes.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// A spawned child plus the `LISTEN <addr>` it printed on boot.
pub struct ChildProc {
    /// The child process.
    pub child: Child,
    /// The address it is bound to.
    pub addr: String,
}

/// Path of a sibling binary (the serve bins land in the same
/// `target/<profile>/` directory as the bench bins).
pub fn sibling_bin(name: &str) -> PathBuf {
    let dir =
        std::env::current_exe().expect("current_exe").parent().expect("bin dir").to_path_buf();
    let path = dir.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    assert!(
        path.exists(),
        "{} not found — build it first: cargo build --release -p flexer-serve --bins",
        path.display()
    );
    path
}

/// Spawns a serve binary and blocks until it prints its bound address.
pub fn spawn_listening(bin: &Path, args: &[&str]) -> ChildProc {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    for line in &mut lines {
        let line = line.expect("child stdout");
        if let Some(addr) = line.strip_prefix("LISTEN ") {
            let addr = addr.trim().to_string();
            // Keep draining stdout so the child never blocks on the pipe.
            std::thread::spawn(move || for _ in lines {});
            return ChildProc { child, addr };
        }
    }
    let status = child.wait();
    panic!("{} exited ({status:?}) before printing LISTEN", bin.display());
}

//! Records the compiler version for the result fingerprint, and a hash of
//! the program's sources (the workspace crates, their vendored dependencies,
//! and this benchmark) so that output digests of different code are never
//! compared with each other.

use std::path::{Path, PathBuf};

/// Directories, relative to this crate, whose files make up the program.
const SOURCES: [&str; 3] = ["../crates", "../third_party", "src"];

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rerun-if-env-changed=RUSTC");

    let mut files = Vec::new();
    for dir in SOURCES {
        println!("cargo:rerun-if-changed={dir}");
        collect(Path::new(dir), &mut files);
    }
    files.sort();
    // FNV-1a over every file's path and contents, in path order.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let contents = std::fs::read(path).unwrap_or_default();
        let len = (contents.len() as u64).to_le_bytes();
        for &b in path.to_string_lossy().as_bytes().iter().chain(&len).chain(&contents) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=PERFBENCH_PROGRAM_HASH={hash:016x}");
}

/// Every regular file under `dir`, recursively.
fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

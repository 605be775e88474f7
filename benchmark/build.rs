//! Records the build settings the benchmark binary was compiled with, so
//! every result line can state its build profile and flags.

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default().replace('\x1f', " ");
    let profile = std::env::var("PROFILE").unwrap_or_default();
    let opt = std::env::var("OPT_LEVEL").unwrap_or_default();
    println!("cargo:rustc-env=ROUNDBENCH_RUSTFLAGS={flags}");
    println!("cargo:rustc-env=ROUNDBENCH_PROFILE={profile}");
    println!("cargo:rustc-env=ROUNDBENCH_OPT_LEVEL={opt}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}

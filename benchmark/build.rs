//! Page-aligns the program text. Without it `.text` starts wherever the
//! read-only data before it ends, and that holds the absolute paths of the
//! source files: the same source built in two directories had every
//! function 48 bytes off modulo 64, so each tight loop sat differently in
//! its cache lines (README, *Calibration*).

#![forbid(unsafe_code)]

fn main() {
    println!("cargo:rustc-link-arg-bins=-Wl,-z,separate-code");
}

//! The paper's application suite (Table 3), generated as IR kernels.
//!
//! Each module provides, for one application:
//!
//! * a **problem** type with paper-scale, reduced, and functional-test
//!   instances;
//! * a **configuration** type plus a declarative [`App::space`] of named
//!   axes (Table 4's "Parameters Varied"), with `configs()` decoding the
//!   space back into typed configurations in enumeration order;
//! * a **generator** producing, for any configuration, a complete
//!   kernel via the `gpu-ir` builder and the `gpu-passes`
//!   transformations (unrolling, address folding, prefetching,
//!   spilling) — the analog of the paper's hand-written CUDA variants;
//! * a single-thread **CPU reference** implementation (Table 3's
//!   baseline) and a functional runner that executes any configuration
//!   on the `gpu-sim` interpreter for equivalence testing.
//!
//! | Application | Paper space | Knobs |
//! |---|---|---|
//! | [`matmul`] | 93 | tile/block size, rectangular tiling, unroll, prefetch, spill |
//! | [`cp`] | 38 | block size, per-thread tiling, output coalescing |
//! | [`sad`] | 908 | per-thread tiling, unroll (3 loops), work per block |
//! | [`mri_fhd`] | 175 | block size, unroll, work per kernel invocation |

pub mod app;
pub mod cp;
pub mod matmul;
pub mod mri_fhd;
pub mod sad;

pub use app::{App, AppInstantiator, SpaceSource};

/// The applications' command-line names, in suite order.
pub const NAMES: [&str; 4] = ["matmul", "cp", "sad", "mri"];

/// The application `name` (one of [`NAMES`]) at the scale the front
/// ends tune it, over its declared `grid` (`default` or `fine`).
/// Matrix multiplication runs a reduced 512² problem (the paper itself
/// ran "smaller inputs than those considered typical"); the others run
/// at the paper-flavoured sizes.
///
/// # Errors
///
/// An unknown app or grid, or a fine grid the app does not declare, as
/// a message ready to print.
pub fn by_name(name: &str, grid: &str) -> Result<Box<dyn App>, String> {
    if !NAMES.contains(&name) {
        return Err(format!("unknown app `{name}` (matmul|cp|sad|mri)"));
    }
    Ok(match (name, grid) {
        ("matmul", "default") => Box::new(matmul::MatMul::reduced_problem()),
        ("cp", "default") => Box::new(cp::Cp::paper_problem()),
        ("sad", "default") => Box::new(sad::Sad::paper_problem()),
        ("mri", "default") => Box::new(mri_fhd::MriFhd::paper_problem()),
        ("matmul", "fine") => Box::new(matmul::MatMulFine::reduced_problem()),
        (_, "fine") => {
            return Err(format!("app `{name}` declares no fine grid (only matmul does)"))
        }
        (_, _) => return Err(format!("unknown grid `{grid}` (default|fine)")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_every_app_and_only_matmuls_fine_grid() {
        for name in NAMES {
            assert!(by_name(name, "default").is_ok(), "{name}");
        }
        assert_eq!(by_name("matmul", "fine").map(|a| a.name()), Ok("Matrix Multiplication (fine)"));
        assert_eq!(
            by_name("cp", "fine").err().as_deref(),
            Some("app `cp` declares no fine grid (only matmul does)")
        );
        assert_eq!(
            by_name("cp", "coarse").err().as_deref(),
            Some("unknown grid `coarse` (default|fine)")
        );
        assert_eq!(
            by_name("teapot", "fine").err().as_deref(),
            Some("unknown app `teapot` (matmul|cp|sad|mri)")
        );
    }
}

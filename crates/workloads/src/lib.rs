//! Vector access-pattern and blocked-program generators.
//!
//! The paper evaluates its cache on a *generic vector computation model*
//! (`VCM`, §3.1) and three concrete access-pattern families (§4): random
//! multistride, sub-block (submatrix), and blocked FFT. This crate
//! generates all of them as explicit traces — sequences of strided
//! [`VectorAccess`]es grouped into a [`Program`] — which the machine
//! simulators in `vcache-machine` execute and the cache simulators in
//! `vcache-cache` can replay word by word. Also included are the three
//! blocked kernels the paper cites as motivation (matrix multiply, LU
//! decomposition, 2-D FFT) and simple SAXPY / matrix row-column-diagonal
//! sweeps for the examples.
//!
//! All randomness flows through caller-provided seeds; the same seed
//! always yields the same trace.
//!
//! # Example
//!
//! ```
//! use vcache_workloads::{Vcm, generate_program};
//!
//! // The paper's blocked-matmul instance of the VCM: blocking factor b²,
//! // reuse b, one double-stream access per b single-stream accesses.
//! let vcm = Vcm::blocked_matmul(16);
//! let program = generate_program(&vcm, 4 * 16 * 16, 42);
//! assert!(!program.accesses.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod extra;
mod kernels;
pub mod numeric;
mod program;
mod vcm;

pub use extra::{
    gather_trace, histogram_trace, spmv_gather_trace, stencil5_trace, transpose_trace,
    zipf_weights, Histogram,
};
pub use kernels::{
    blocked_lu_trace, blocked_matmul_trace, fft_phase_trace, fft_stage_trace, fft_two_dim_trace,
    matrix_trace, saxpy_trace, subblock_trace, FftLayout, MatrixSweep,
};
pub use program::{signed_stride, Program, VectorAccess};
pub use vcm::{generate_program, StrideDistribution, Vcm};

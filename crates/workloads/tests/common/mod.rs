//! Workloads shared by this crate's integration tests.

use streamsim_workloads::{kernels, Workload};

/// Small variants of every paper kernel (fast enough for debug-mode CI).
pub fn small_kernels() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(kernels::Embar {
            chunk: 256,
            batches: 4,
            compute_refs: 4,
        }),
        Box::new(kernels::Mgrid { n: 8, cycles: 1 }),
        Box::new(kernels::Cgm {
            rows: 200,
            nnz: 3_000,
            bandwidth: Some(40),
            iters: 2,
            seed: 1,
        }),
        Box::new(kernels::Fftpde {
            n: 16,
            steps: 1,
            passes: 1,
        }),
        Box::new(kernels::Is {
            keys: 2_048,
            max_key: 256,
            iters: 1,
            seed: 2,
        }),
        Box::new(kernels::Appsp { n: 8, iters: 1 }),
        Box::new(kernels::Appbt { n: 6, iters: 1 }),
        Box::new(kernels::Applu { n: 6, iters: 1 }),
        Box::new(kernels::Spec77 {
            waves: 12,
            lats: 12,
            levels: 2,
            steps: 1,
        }),
        Box::new(kernels::Adm {
            cells: 2_048,
            steps: 1,
            indirect_pct: 60,
            seed: 3,
        }),
        Box::new(kernels::Bdna {
            atoms: 512,
            neighbours: 6,
            window: 32,
            steps: 1,
            seed: 4,
        }),
        Box::new(kernels::Dyfesm {
            elements: 256,
            nodes: 1_024,
            nodes_per_elem: 4,
            steps: 1,
            seed: 5,
        }),
        Box::new(kernels::Mdg {
            molecules: 48,
            steps: 1,
            seed: 6,
        }),
        Box::new(kernels::Qcd { l: 4, sweeps: 1 }),
        Box::new(kernels::Trfd {
            n: 48,
            unit_passes: 1,
            strided_passes: 1,
            compute_refs: 1,
        }),
    ]
}

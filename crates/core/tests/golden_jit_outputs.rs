//! Bit pin of the arrayjit port's numerics.
//!
//! The cross-implementation tests compare the JIT port with the CPU
//! baseline only within tolerances, and the benchmark checks makespans,
//! so a one-ulp change in the array evaluator would pass both. This test
//! hashes the exact bits of every output of the ten JIT kernels, on both
//! arrayjit backends, over a padded-interval workspace, plus rank 0's
//! final `signal`/`zmap`/`amp_out` of a small jax pipeline run, and
//! compares the report with `golden/jit_outputs.txt` line for line.
//!
//! A change that moves any of these lines changes the port's numerics and
//! must be made deliberately. Regenerate with `cargo test -p toast-core
//! --test golden_jit_outputs -- --ignored --nocapture`.

use accel_sim::{Context, NodeCalib};
use toast_core::dispatch::{ImplKind, KernelId};
use toast_core::kernels::{run_kernel, ExecCtx};
use toast_core::memory::AccelStore;
use toast_core::pipeline::benchmark_pipeline;
use toast_core::testutil::test_workspace;
use toast_core::workspace::{BufferId, Workspace};
use toast_satsim::Problem;

/// Every JIT kernel, in an order where each one's inputs are produced by
/// the kernels before it, with the buffer it replaces. `stokes_weights_I`
/// runs first, on the zeroed weights, so its output differs from its input.
const KERNELS: [(KernelId, BufferId); 10] = [
    (KernelId::StokesWeightsI, BufferId::Weights),
    (KernelId::PointingDetector, BufferId::Quats),
    (KernelId::PixelsHealpix, BufferId::Pixels),
    (KernelId::StokesWeightsIqu, BufferId::Weights),
    (KernelId::ScanMap, BufferId::Signal),
    (KernelId::TemplateOffsetAddToSignal, BufferId::Signal),
    (KernelId::NoiseWeight, BufferId::Signal),
    (KernelId::BuildNoiseWeighted, BufferId::ZMap),
    (KernelId::TemplateOffsetProjectSignal, BufferId::AmpOut),
    (KernelId::TemplateOffsetApplyDiagPrecond, BufferId::AmpOut),
];

/// FNV-1a over the little-endian bytes of each word.
fn fnv64(words: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn f64_line(label: &str, values: &[f64]) -> String {
    let h = fnv64(values.iter().map(|v| v.to_bits()));
    format!("{label} n={} fnv={h:016x}\n", values.len())
}

/// One line per kernel output: the array the kernel left in the store.
fn kernel_report(kind: ImplKind, label: &str) -> String {
    let mut ws = test_workspace(5, 157, 8);
    let mut ctx = Context::new(NodeCalib::default());
    let mut exec = ExecCtx::new(kind, 16);
    for id in BufferId::ALL {
        exec.store
            .ensure_device(&mut ctx, &ws, id)
            .expect("test workspace fits");
    }
    let mut report = String::new();
    for (kernel, buffer) in KERNELS {
        run_kernel(&mut ctx, &mut exec, &mut ws, kernel).expect("buffers resident");
        let AccelStore::Jit(store) = &exec.store else {
            panic!("{kind} runs on a Jit store");
        };
        let array = store.array(buffer).expect("output resident");
        let name = format!("{label} {} {buffer:?}", kernel.name());
        report.push_str(&if buffer.is_integer() {
            let values = array.as_i64();
            let h = fnv64(values.iter().map(|&v| v as u64));
            format!("{name} n={} fnv={h:016x}\n", values.len())
        } else {
            f64_line(&name, array.as_f64())
        });
    }
    report
}

/// Rank 0 of a small medium-problem jax run (16 detectors over two
/// ranks, two observations).
fn pipeline_report() -> String {
    let mut p = Problem::medium(1e-3);
    p.total_samples *= 16.0 / p.n_det_total as f64;
    p.n_det_total = 16;
    p.n_obs = 2;
    let ranks = 2;
    let mut ws: Workspace = p.rank_workspace(0, ranks);
    let mut ctx = Context::new(p.calib());
    let mut exec = ExecCtx::new(ImplKind::Jit, 64 / ranks);
    let pipe = benchmark_pipeline(p.host_seconds_per_rank(&ws, ranks));
    for _ in 0..p.n_obs {
        pipe.run(&mut ctx, &mut exec, &mut ws).expect("fits");
    }
    let mut report = String::new();
    report.push_str(&f64_line("pipeline jax signal", &ws.obs.signal));
    report.push_str(&f64_line("pipeline jax zmap", &ws.zmap));
    report.push_str(&f64_line("pipeline jax amp_out", &ws.amp_out));
    report
}

fn report() -> String {
    kernel_report(ImplKind::Jit, "device")
        + &kernel_report(ImplKind::JitCpu, "cpu")
        + &pipeline_report()
}

#[test]
fn jit_outputs_match_the_golden_bits() {
    let got = report();
    let golden = include_str!("golden/jit_outputs.txt");
    for (i, (g, w)) in got.lines().zip(golden.lines()).enumerate() {
        assert_eq!(g, w, "golden jit output line {} differs", i + 1);
    }
    assert_eq!(got, golden, "golden jit output length differs");
}

/// Prints the current report for `golden/jit_outputs.txt`.
#[test]
#[ignore]
fn capture_golden_jit_outputs() {
    print!("{}", report());
}

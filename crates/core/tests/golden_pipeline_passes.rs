//! Bit pin of whole solver-pass pipelines: final workspaces and rank
//! traces.
//!
//! Each case runs every rank of a small medium-problem node through
//! `benchmark_pipeline_passes` (two observations × six passes), the way
//! the benchmark runner does, and hashes two things. The first is every
//! host buffer of every rank's final workspace. The second is each rank's
//! trace: its segments and its span events, whose virtual-clock starts
//! and durations carry every charge the rank made. The cases cover
//! cpu/omp/jit/jit_cpu under tracked and naive movement, plus omp and jit
//! with `pixels_healpix` overridden to the CPU (a hybrid pipeline that
//! syncs residency both ways), each at 4 and 16 processes.
//!
//! The report is compared with `golden/pipeline_passes.txt` line for
//! line. A change to how the pipeline schedules numerics must leave every
//! line as it is. A line that moves means a moved output bit or a moved
//! virtual-clock charge, and needs a deliberate reason. Regenerate with
//! `cargo test -p toast-core --test golden_pipeline_passes -- --ignored
//! --nocapture`.

use accel_sim::{Context, RankTrace};
use toast_core::dispatch::{ImplKind, ImplSelection, KernelId};
use toast_core::kernels::{ExecCtx, JitKernels};
use toast_core::pipeline::{benchmark_pipeline_passes, MovementPolicy};
use toast_core::workspace::{BufferId, Workspace};
use toast_satsim::Problem;

/// FNV-1a over bytes.
fn fnv64(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The little-endian bytes of every element of `id`, across all ranks.
fn buffer_bytes(ranks: &[Workspace], id: BufferId) -> Vec<u8> {
    let mut bytes = Vec::new();
    for ws in ranks {
        if id.is_integer() {
            bytes.extend(ws.obs.pixels.iter().flat_map(|v| v.to_le_bytes()));
        } else {
            bytes.extend(
                ws.f64_slice(id)
                    .iter()
                    .flat_map(|v| v.to_bits().to_le_bytes()),
            );
        }
    }
    bytes
}

/// `{:?}` prints every f64 in its shortest round-trip form, so equal
/// text means equal bits.
fn debug_line<T: std::fmt::Debug>(items: &[T]) -> String {
    let text = format!("{items:?}");
    format!("n={} fnv={:016x}", items.len(), fnv64(text.bytes()))
}

/// The medium problem shrunk to 64 detectors and two observations, with
/// its six solver passes per observation.
fn problem() -> Problem {
    let mut p = Problem::medium(1e-3);
    p.n_det_total = 64;
    p.n_obs = 2;
    p.total_samples = 5e9 / 128.0;
    p
}

/// Every rank of one node: final workspaces and traces.
fn run_case(
    p: &Problem,
    selection: &ImplSelection,
    kind: ImplKind,
    policy: MovementPolicy,
    procs: u32,
) -> (Vec<Workspace>, Vec<RankTrace>) {
    let calib = p.calib();
    let inputs = p.run_inputs(procs);
    let programs = JitKernels::new();
    let threads = calib.cpu.cores / procs;
    let mut workspaces = Vec::new();
    let mut traces = Vec::new();
    for rank in 0..procs {
        let mut ws = inputs.rank_workspace(rank);
        let mut ctx = Context::new(calib);
        let mut exec = ExecCtx::with_jits(kind, threads, programs.share());
        exec.selection = selection.clone();
        let pipe = benchmark_pipeline_passes(p.host_seconds_per_rank(&ws, procs), p.passes)
            .with_policy(policy);
        for _ in 0..p.n_obs {
            pipe.run(&mut ctx, &mut exec, &mut ws)
                .expect("the shrunk problem fits");
        }
        workspaces.push(ws);
        traces.push(ctx.into_trace());
    }
    (workspaces, traces)
}

fn report() -> String {
    let p = problem();
    assert_eq!(p.passes, 6, "the medium problem runs six solver passes");
    let mut cases = Vec::new();
    for (name, kind) in [
        ("cpu", ImplKind::Cpu),
        ("omp", ImplKind::OmpTarget),
        ("jit", ImplKind::Jit),
        ("jit_cpu", ImplKind::JitCpu),
    ] {
        for policy in [MovementPolicy::Tracked, MovementPolicy::Naive] {
            cases.push((
                format!("{name} {policy}"),
                ImplSelection::all(kind),
                kind,
                policy,
            ));
        }
    }
    for (name, kind) in [("omp", ImplKind::OmpTarget), ("jit", ImplKind::Jit)] {
        let hybrid = ImplSelection::all(kind).with_override(KernelId::PixelsHealpix, ImplKind::Cpu);
        cases.push((
            format!("{name}+cpu_pixels tracked"),
            hybrid,
            kind,
            MovementPolicy::Tracked,
        ));
    }

    let mut out = String::new();
    for procs in [4u32, 16] {
        for (label, selection, kind, policy) in &cases {
            let (workspaces, traces) = run_case(&p, selection, *kind, *policy, procs);
            let case = format!("{label} p{procs}");
            for id in BufferId::ALL {
                let bytes = buffer_bytes(&workspaces, id);
                out.push_str(&format!(
                    "{case} ws {id:?} bytes={} fnv={:016x}\n",
                    bytes.len(),
                    fnv64(bytes.into_iter())
                ));
            }
            for (rank, trace) in traces.iter().enumerate() {
                out.push_str(&format!(
                    "{case} rank {rank} segments {} events {} peak={}\n",
                    debug_line(&trace.segments),
                    debug_line(&trace.events),
                    trace.peak_device_bytes
                ));
            }
        }
    }
    out
}

#[test]
fn pipeline_passes_match_the_golden_bits() {
    let got = report();
    let golden = include_str!("golden/pipeline_passes.txt");
    for (i, (g, w)) in got.lines().zip(golden.lines()).enumerate() {
        assert_eq!(g, w, "golden pipeline line {} differs", i + 1);
    }
    assert_eq!(got, golden, "golden pipeline report length differs");
}

/// Prints the current report for `golden/pipeline_passes.txt`.
#[test]
#[ignore]
fn capture_golden_pipeline_passes() {
    print!("{}", report());
}

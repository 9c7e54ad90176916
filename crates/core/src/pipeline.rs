//! Hybrid CPU/GPU pipelines with residency-tracked data movement
//! (paper § 3.2.2).
//!
//! A [`Pipeline`] is a sequence of operators: ported kernels plus
//! [`OpKind::HostWork`] stand-ins for the serial Python layer and the
//! "more than 30 kernels \[that\] have yet to be ported to GPU" which bound
//! the paper's overall speedup through Amdahl's law.
//!
//! Under [`MovementPolicy::Tracked`] the executor consults each operator's
//! declared inputs/outputs, uploads lazily, leaves products resident
//! between GPU kernels, copies requested outputs back once at the end and
//! deletes device data — the design the paper credits with a ~40% speedup
//! over [`MovementPolicy::Naive`], which transfers every kernel's data in
//! and out around each call (what both frameworks would do unaided).
//!
//! Within one [`Pipeline::run`], a kernel in [`REUSABLE_KERNELS`] whose
//! declared inputs and outputs nobody has written since its last computed
//! call already holds its results: the solver passes of
//! [`benchmark_pipeline_passes`] re-derive the same pointing, pixels and
//! weights every pass. Such a call is charged in full but computes
//! nothing. The decision reads per-run write generations, not buffer
//! contents, and touches no charge, so the virtual clock and every output
//! bit are those of computing every call.

use accel_sim::Context;

use crate::dispatch::KernelId;
use crate::kernels::{dispatch, kernel_inputs, kernel_outputs, ExecCtx, REUSABLE_KERNELS};
use crate::workspace::{BufferId, Workspace};

/// A pipeline step failed, with enough context to name the culprit.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Device memory ran out while staging `buffer` for `kernel` (the
    /// paper's JAX OOM runs surface here).
    Memory {
        kernel: String,
        buffer: BufferId,
        /// The movement policy in force — Naive keeps less resident, so
        /// the same problem can OOM under one policy and fit under the
        /// other; the error names which one failed.
        policy: MovementPolicy,
        source: accel_sim::MemoryError,
    },
    /// `kernel` was dispatched but `buffer` was not resident on the
    /// device — a movement-policy bug, reported instead of panicking.
    NotResident { kernel: String, buffer: BufferId },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Memory {
                kernel,
                buffer,
                policy,
                source,
            } => write!(
                f,
                "staging {buffer:?} for {kernel} ({policy} movement): {source}"
            ),
            PipelineError::NotResident { kernel, buffer } => {
                write!(
                    f,
                    "{kernel}: {buffer:?} not resident on device (pipeline bug)"
                )
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// One pipeline step.
#[derive(Debug, Clone)]
pub enum OpKind {
    /// A ported kernel, dispatched through the runtime selection.
    Kernel(KernelId),
    /// Unported/serial host work of `seconds(threads)` duration — the
    /// Amdahl term. The duration is per-rank simulated time.
    HostWork { name: String, seconds: f64 },
    /// Device-side zeroing of a buffer (`accel_data_reset` in Fig. 6).
    ResetDevice(BufferId),
}

/// How the pipeline moves data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MovementPolicy {
    /// Residency tracking across kernels (the paper's design).
    #[default]
    Tracked,
    /// Per-kernel in/out transfers (the ablation baseline).
    Naive,
}

impl std::fmt::Display for MovementPolicy {
    /// Stable lowercase name; the vocabulary of trace phase labels
    /// (`pipeline[tracked]`) and error messages.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MovementPolicy::Tracked => "tracked",
            MovementPolicy::Naive => "naive",
        })
    }
}

impl std::str::FromStr for MovementPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "tracked" => Ok(MovementPolicy::Tracked),
            "naive" => Ok(MovementPolicy::Naive),
            other => Err(format!(
                "unknown movement policy '{other}' (expected tracked or naive)"
            )),
        }
    }
}

/// A sequence of operators over one workspace.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    ops: Vec<OpKind>,
    /// Buffers whose final values the caller needs on the host.
    outputs: Vec<BufferId>,
    policy: MovementPolicy,
}

impl Pipeline {
    /// Empty pipeline with tracked movement.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the data-movement policy.
    pub fn with_policy(mut self, policy: MovementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Append a kernel step.
    pub fn kernel(mut self, kernel: KernelId) -> Self {
        self.ops.push(OpKind::Kernel(kernel));
        self
    }

    /// Append host-side (unported/serial) work.
    pub fn host_work(mut self, name: impl Into<String>, seconds: f64) -> Self {
        self.ops.push(OpKind::HostWork {
            name: name.into(),
            seconds,
        });
        self
    }

    /// Append a device-side buffer reset.
    pub fn reset(mut self, id: BufferId) -> Self {
        self.ops.push(OpKind::ResetDevice(id));
        self
    }

    /// Declare a buffer the caller needs back on the host at the end.
    pub fn output(mut self, id: BufferId) -> Self {
        self.outputs.push(id);
        self
    }

    /// The operator sequence (read-only).
    pub fn ops(&self) -> &[OpKind] {
        &self.ops
    }

    /// Execute against `ws`, charging `ctx`. Device-memory exhaustion and
    /// residency bugs surface as a [`PipelineError`] naming the kernel and
    /// buffer involved (the paper's JAX OOM runs). A reusable kernel whose
    /// buffers nothing has written since it last computed in this call is
    /// charged without computing (see the module docs); every call starts
    /// afresh.
    pub fn run(
        &self,
        ctx: &mut Context,
        exec: &mut ExecCtx,
        ws: &mut Workspace,
    ) -> Result<(), PipelineError> {
        // Scope every charge under a movement-policy phase; truncate on the
        // way out so `?`-propagation cannot leave dangling scopes.
        let depth = ctx.phase_depth();
        ctx.push_phase(format!("pipeline[{}]", self.policy));
        let result = self.run_ops(ctx, exec, ws);
        ctx.truncate_phases(depth);
        result
    }

    fn run_ops(
        &self,
        ctx: &mut Context,
        exec: &mut ExecCtx,
        ws: &mut Workspace,
    ) -> Result<(), PipelineError> {
        let mut writes = WriteClock::default();
        for op in &self.ops {
            match op {
                OpKind::HostWork { name, seconds } => ctx.host_compute(name.clone(), *seconds),
                OpKind::ResetDevice(id) => {
                    // Only meaningful when the buffer is resident; zero the
                    // host copy too so host/device views stay coherent.
                    writes.wrote(*id);
                    ws.f64_slice_mut(*id).fill(0.0);
                    if exec.store.resident(*id) {
                        self.reset_resident(ctx, exec, ws, *id).map_err(|e| {
                            PipelineError::NotResident {
                                kernel: format!("reset[{id:?}]"),
                                buffer: e.buffer,
                            }
                        })?;
                    }
                }
                OpKind::Kernel(kernel) => {
                    let kernel_depth = ctx.phase_depth();
                    ctx.push_phase(format!("kernel[{kernel:?}]"));
                    let compute = !writes.holds(*kernel);
                    let step = self.run_kernel_op(ctx, exec, ws, *kernel, compute);
                    ctx.truncate_phases(kernel_depth);
                    step?;
                    if compute {
                        writes.computed(*kernel);
                    }
                }
            }
        }

        // Pipeline epilogue: copy requested outputs home, drop the rest.
        for &id in &self.outputs {
            if exec.store.resident(id) {
                exec.store.update_host(ctx, ws, id);
            }
        }
        exec.store.clear(ctx);
        Ok(())
    }

    fn run_kernel_op(
        &self,
        ctx: &mut Context,
        exec: &mut ExecCtx,
        ws: &mut Workspace,
        kernel: KernelId,
        compute: bool,
    ) -> Result<(), PipelineError> {
        let kind = exec.selection.resolve(kernel);
        let moves = kind.uses_device() || matches!(kind, crate::dispatch::ImplKind::JitCpu);
        if moves {
            for &id in kernel_inputs(kernel).iter().chain(kernel_outputs(kernel)) {
                exec.store
                    .ensure_device(ctx, ws, id)
                    .map_err(|source| PipelineError::Memory {
                        kernel: format!("{kernel:?}"),
                        buffer: id,
                        policy: self.policy,
                        source,
                    })?;
            }
        } else {
            // A host kernel in a hybrid pipeline: refresh its
            // inputs from the device, and invalidate device
            // copies of what it writes (§ 3.2.2: "we ensure
            // that the required data is in the correct
            // location").
            for &id in kernel_inputs(kernel) {
                if exec.store.resident(id) {
                    exec.store.update_host(ctx, ws, id);
                }
            }
            for &id in kernel_outputs(kernel) {
                if exec.store.resident(id) {
                    exec.store.update_host(ctx, ws, id);
                    exec.store.delete(ctx, id);
                }
            }
        }
        dispatch(ctx, exec, ws, kernel, compute).map_err(|e| PipelineError::NotResident {
            kernel: format!("{kernel:?}"),
            buffer: e.buffer,
        })?;
        if moves && self.policy == MovementPolicy::Naive {
            // Naive mode: bounce everything this kernel touched.
            for &id in kernel_outputs(kernel) {
                exec.store.update_host(ctx, ws, id);
            }
            for &id in kernel_inputs(kernel) {
                exec.store.delete(ctx, id);
            }
            for &id in kernel_outputs(kernel) {
                exec.store.delete(ctx, id);
            }
        }
        Ok(())
    }

    fn reset_resident(
        &self,
        ctx: &mut Context,
        exec: &mut ExecCtx,
        ws: &Workspace,
        id: BufferId,
    ) -> Result<(), crate::memory::ResidencyError> {
        use crate::memory::AccelStore;
        match &mut exec.store {
            AccelStore::Omp(s) => {
                let mut buf = s.take(id)?;
                offload::map::reset_device(ctx, &mut buf);
                s.put_back(id, buf);
            }
            AccelStore::Jit(s) => {
                // Functional zeroing: replace with a zero array; charged as
                // a reset (cheaper than a PCIe transfer — Fig. 6 shows JAX
                // spending little in accel_data_reset).
                let n = ws.f64_slice(id).len();
                if !s.host_mode {
                    let ratio = ctx.calib.gpu.pcie_bw / ctx.calib.gpu.hbm_bw;
                    ctx.transfer_labeled(
                        (n * 8) as f64 * ratio * 0.5,
                        accel_sim::TransferDir::HostToDevice,
                        "accel_data_reset",
                    );
                }
                s.replace(id, arrayjit::Array::zeros(vec![n]))?;
            }
            AccelStore::None => {}
        }
        Ok(())
    }
}

/// Write generations of one [`Pipeline::run`]: which buffers were written
/// after each reusable kernel last computed. Every write ticks one clock;
/// a buffer remembers the tick of its last write and a kernel the tick
/// just after its outputs were last computed. Each query is O(1) in the
/// buffer sizes, and nothing outlives the run.
#[derive(Default)]
struct WriteClock {
    now: u64,
    last_write: [u64; BufferId::ALL.len()],
    computed_at: [Option<u64>; KernelId::ALL.len()],
}

impl WriteClock {
    fn wrote(&mut self, id: BufferId) {
        self.now += 1;
        self.last_write[id as usize] = self.now;
    }

    /// A kernel computed: its outputs now hold fresh values.
    fn computed(&mut self, kernel: KernelId) {
        for &id in kernel_outputs(kernel) {
            self.wrote(id);
        }
        self.computed_at[kernel as usize] = Some(self.now);
    }

    /// Whether `kernel` is reusable and its outputs still hold what it
    /// would compute now: it has computed in this run, and none of its
    /// inputs or outputs has been written since.
    fn holds(&self, kernel: KernelId) -> bool {
        REUSABLE_KERNELS.contains(&kernel)
            && self.computed_at[kernel as usize].is_some_and(|at| {
                kernel_inputs(kernel)
                    .iter()
                    .chain(kernel_outputs(kernel))
                    .all(|&id| self.last_write[id as usize] <= at)
            })
    }
}

/// The paper's benchmark pipeline: pointing expansion → pixelisation →
/// Stokes weights → sky scan → noise weighting → map accumulation →
/// template offset operations, with the unported host fraction attached.
///
/// `host_seconds` is the per-rank serial/unported work charged alongside
/// the kernels (the Amdahl term of § 4).
pub fn benchmark_pipeline(host_seconds: f64) -> Pipeline {
    benchmark_pipeline_passes(host_seconds, 1)
}

/// [`benchmark_pipeline`] with the kernel block iterated `passes` times
/// over resident data — the map-making solver's repeated passes, which is
/// what amortises the once-per-observation transfers in the paper's
/// Fig. 6 ("most of the data operations barely register").
pub fn benchmark_pipeline_passes(host_seconds: f64, passes: usize) -> Pipeline {
    let passes = passes.max(1);
    let per_pass = host_seconds / passes as f64;
    let mut pipe = Pipeline::new().host_work("load_and_setup", host_seconds * 0.4);
    for _ in 0..passes {
        pipe = pipe
            .kernel(KernelId::PointingDetector)
            .kernel(KernelId::PixelsHealpix)
            .kernel(KernelId::StokesWeightsIqu)
            .kernel(KernelId::ScanMap)
            .host_work("unported_operators", per_pass * 0.45)
            .kernel(KernelId::TemplateOffsetAddToSignal)
            .kernel(KernelId::NoiseWeight)
            .reset(crate::workspace::BufferId::ZMap)
            .kernel(KernelId::BuildNoiseWeighted)
            .kernel(KernelId::TemplateOffsetProjectSignal);
    }
    pipe.host_work("reductions_and_output", host_seconds * 0.15)
        .output(BufferId::Signal)
        .output(BufferId::ZMap)
        .output(BufferId::AmpOut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::ImplKind;
    use crate::kernels::run_kernel;
    use crate::testutil::test_workspace;
    use accel_sim::NodeCalib;

    fn run_with(kind: ImplKind, policy: MovementPolicy) -> (Workspace, Context) {
        let mut ws = test_workspace(3, 120, 8);
        let mut ctx = Context::new(NodeCalib::default());
        let mut exec = ExecCtx::new(kind, 4);
        let pipe = benchmark_pipeline(0.1).with_policy(policy);
        pipe.run(&mut ctx, &mut exec, &mut ws).unwrap();
        (ws, ctx)
    }

    #[test]
    fn all_implementations_agree() {
        let (cpu, _) = run_with(ImplKind::Cpu, MovementPolicy::Tracked);
        let (omp, _) = run_with(ImplKind::OmpTarget, MovementPolicy::Tracked);
        let (jit, _) = run_with(ImplKind::Jit, MovementPolicy::Tracked);
        let (jit_cpu, _) = run_with(ImplKind::JitCpu, MovementPolicy::Tracked);

        assert_eq!(cpu.obs.signal.len(), omp.obs.signal.len());
        for (i, (a, b)) in cpu.obs.signal.iter().zip(&omp.obs.signal).enumerate() {
            assert!((a - b).abs() < 1e-9 * a.abs().max(1.0), "omp signal[{i}]");
        }
        for (i, (a, b)) in cpu.obs.signal.iter().zip(&jit.obs.signal).enumerate() {
            assert!((a - b).abs() < 1e-9 * a.abs().max(1.0), "jit signal[{i}]");
        }
        for (i, (a, b)) in cpu.zmap.iter().zip(&jit.zmap).enumerate() {
            assert!((a - b).abs() < 1e-8 * a.abs().max(1.0), "jit zmap[{i}]");
        }
        for (i, (a, b)) in cpu.zmap.iter().zip(&omp.zmap).enumerate() {
            assert!((a - b).abs() < 1e-8 * a.abs().max(1.0), "omp zmap[{i}]");
        }
        for (i, (a, b)) in cpu.amp_out.iter().zip(&jit.amp_out).enumerate() {
            assert!((a - b).abs() < 1e-8 * a.abs().max(1.0), "jit amp[{i}]");
        }
        // The CPU backend computes the same numbers as the device backend.
        assert_eq!(jit.obs.signal, jit_cpu.obs.signal);
    }

    #[test]
    fn write_clock_reuses_only_unwritten_reusable_kernels() {
        use KernelId as K;
        let mut w = WriteClock::default();
        assert!(!w.holds(K::PointingDetector), "never computed");
        w.computed(K::PointingDetector);
        w.computed(K::PixelsHealpix);
        assert!(w.holds(K::PointingDetector) && w.holds(K::PixelsHealpix));

        // Recomputing pointing writes Quats, which pixels reads.
        w.computed(K::PointingDetector);
        assert!(w.holds(K::PointingDetector));
        assert!(!w.holds(K::PixelsHealpix));

        // Two kernels writing one buffer invalidate each other.
        w.computed(K::StokesWeightsI);
        w.computed(K::StokesWeightsIqu);
        assert!(!w.holds(K::StokesWeightsI) && w.holds(K::StokesWeightsIqu));

        // A write to an input, and kernels that are not reusable.
        w.wrote(BufferId::Boresight);
        assert!(!w.holds(K::PointingDetector));
        w.computed(K::ScanMap);
        assert!(!w.holds(K::ScanMap));
    }

    #[test]
    fn tracked_movement_transfers_less_than_naive() {
        let (_, tracked) = run_with(ImplKind::OmpTarget, MovementPolicy::Tracked);
        let (_, naive) = run_with(ImplKind::OmpTarget, MovementPolicy::Naive);
        let bytes = |c: &Context| c.trace().transfer_bytes();
        assert!(
            bytes(&naive) > 1.5 * bytes(&tracked),
            "naive {} vs tracked {}",
            bytes(&naive),
            bytes(&tracked)
        );
    }

    #[test]
    fn device_is_empty_after_the_pipeline() {
        let (_, ctx) = run_with(ImplKind::Jit, MovementPolicy::Tracked);
        assert_eq!(ctx.device_in_use(), 0);
        let (_, ctx) = run_with(ImplKind::OmpTarget, MovementPolicy::Tracked);
        assert_eq!(ctx.device_in_use(), 0);
    }

    #[test]
    fn cpu_pipeline_never_touches_the_device() {
        let (_, ctx) = run_with(ImplKind::Cpu, MovementPolicy::Tracked);
        assert_eq!(ctx.trace().kernel_count(), 0);
        assert_eq!(ctx.trace().transfer_bytes(), 0.0);
    }

    #[test]
    fn mixed_dispatch_syncs_residency_both_ways() {
        // Everything offloaded except pixels_healpix on the CPU: the
        // pipeline must copy quats back for the host kernel and re-upload
        // the pixels it produces (the paper's debugging workflow).
        let (cpu, _) = run_with(ImplKind::Cpu, MovementPolicy::Tracked);

        let mut ws = test_workspace(3, 120, 8);
        let mut ctx = Context::new(NodeCalib::default());
        let mut exec = ExecCtx::new(ImplKind::OmpTarget, 4);
        exec.selection = crate::dispatch::ImplSelection::all(ImplKind::OmpTarget)
            .with_override(crate::dispatch::KernelId::PixelsHealpix, ImplKind::Cpu);
        benchmark_pipeline(0.1)
            .run(&mut ctx, &mut exec, &mut ws)
            .unwrap();

        for (i, (a, b)) in cpu.obs.signal.iter().zip(&ws.obs.signal).enumerate() {
            assert!(
                (a - b).abs() < 1e-9 * a.abs().max(1.0),
                "signal[{i}]: {a} vs {b}"
            );
        }
        for (i, (a, b)) in cpu.zmap.iter().zip(&ws.zmap).enumerate() {
            assert!((a - b).abs() < 1e-8 * a.abs().max(1.0), "zmap[{i}]");
        }
    }

    #[test]
    fn host_work_is_charged() {
        let (_, ctx) = run_with(ImplKind::Cpu, MovementPolicy::Tracked);
        assert!(ctx.stats().contains_key("unported_operators"));
        assert!(ctx.stats().contains_key("load_and_setup"));
    }

    #[test]
    fn oom_is_reported_with_kernel_and_buffer() {
        let mut ws = test_workspace(3, 120, 8);
        let mut calib = NodeCalib::default();
        calib.gpu.mem_bytes = 1024; // far too small for any buffer
        let mut ctx = Context::new(calib);
        let mut exec = ExecCtx::new(ImplKind::OmpTarget, 4);
        let err = benchmark_pipeline(0.1)
            .run(&mut ctx, &mut exec, &mut ws)
            .unwrap_err();
        match &err {
            PipelineError::Memory { kernel, .. } => {
                assert_eq!(kernel, "PointingDetector");
            }
            other => panic!("expected Memory error, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("PointingDetector"), "{msg}");
        assert!(msg.contains("tracked movement"), "{msg}");
    }

    #[test]
    fn movement_policy_displays_its_phase_vocabulary() {
        assert_eq!(MovementPolicy::Tracked.to_string(), "tracked");
        assert_eq!(MovementPolicy::Naive.to_string(), "naive");
        // The phase label is derived from Display, so the vocabulary the
        // trace viewers key on must not drift.
        assert_eq!(
            format!("pipeline[{}]", MovementPolicy::Naive),
            "pipeline[naive]"
        );
    }

    #[test]
    fn oom_mid_pipeline_leaves_no_dangling_phases() {
        let mut ws = test_workspace(3, 120, 8);
        let mut calib = NodeCalib::default();
        calib.gpu.mem_bytes = 1024;
        let mut ctx = Context::new(calib);
        let mut exec = ExecCtx::new(ImplKind::OmpTarget, 4);
        assert!(benchmark_pipeline(0.1)
            .run(&mut ctx, &mut exec, &mut ws)
            .is_err());
        assert_eq!(ctx.phase_depth(), 0);
    }

    #[test]
    fn missing_residency_surfaces_as_typed_error() {
        // Dispatch a device kernel without staging its buffers: the old
        // code panicked here; now it names the kernel and the buffer.
        let mut ws = test_workspace(2, 60, 8);
        let mut ctx = Context::new(NodeCalib::default());
        let mut exec = ExecCtx::new(ImplKind::OmpTarget, 4);
        let err = run_kernel(&mut ctx, &mut exec, &mut ws, KernelId::ScanMap).unwrap_err();
        assert_eq!(err.buffer, BufferId::SkyMap);
    }

    #[test]
    fn phases_scope_pipeline_charges() {
        let (_, ctx) = run_with(ImplKind::OmpTarget, MovementPolicy::Tracked);
        let events = &ctx.trace().events;
        // Movement-policy and kernel phase events are emitted...
        assert!(events
            .iter()
            .any(|e| e.kind == accel_sim::SpanKind::Phase && e.label == "pipeline[tracked]"));
        assert!(events
            .iter()
            .any(|e| e.kind == accel_sim::SpanKind::Phase && e.label == "kernel[ScanMap]"));
        // ...and kernel launches carry the nested scope.
        assert!(events.iter().any(|e| e.kind == accel_sim::SpanKind::Kernel
            && e.label == "scan_map"
            && e.scope == "pipeline[tracked]/kernel[ScanMap]"));
        assert_eq!(ctx.phase_depth(), 0);
    }
}

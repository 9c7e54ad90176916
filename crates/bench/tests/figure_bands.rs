//! The checked-in figure tables (`tests/golden/figures/`) against the
//! paper, for what EXPERIMENTS.md marks as reproduced: Fig. 5's ratios
//! within 7 %, Fig. 4's out-of-memory cells and peak, Fig. 6's orderings,
//! and the directions of the MPS and data-movement ablations. A
//! cost-model change that moves a golden must keep these.

use std::collections::BTreeMap;

/// The rows of the first table in a figure's golden: the header names
/// each cell. Columns are right-aligned and separated by two spaces.
fn table(name: &str) -> Vec<BTreeMap<String, String>> {
    let path = format!(
        "{}/tests/golden/figures/{name}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let cells = |line: &str| -> Vec<String> {
        line.split("  ")
            .map(str::trim)
            .filter(|c| !c.is_empty())
            .map(String::from)
            .collect()
    };
    let lines: Vec<&str> = text.lines().collect();
    let rule = lines
        .iter()
        .position(|l| !l.is_empty() && l.chars().all(|c| c == '-'))
        .unwrap_or_else(|| panic!("{path}: no table"));
    let header = cells(lines[rule - 1]);
    lines[rule + 1..]
        .iter()
        .take_while(|l| !l.is_empty())
        .map(|l| header.iter().cloned().zip(cells(l)).collect())
        .collect()
}

/// A `1.23x` cell as a number; `None` for `-` or `OOM`.
fn num(cell: &str) -> Option<f64> {
    cell.trim_end_matches('x').parse().ok()
}

fn row<'a>(
    rows: &'a [BTreeMap<String, String>],
    col: &str,
    key: &str,
) -> &'a BTreeMap<String, String> {
    rows.iter()
        .find(|r| r[col] == key)
        .unwrap_or_else(|| panic!("no row {key}"))
}

#[test]
fn fig5_ratios_are_within_7_percent_of_the_paper() {
    let rows = table("fig5_full_benchmark");
    for (name, paper) in [
        ("OpenMP CPU", "1.00x faster"),
        ("JAX", "2.28x faster"),
        ("OpenMP Target Offload", "2.58x faster"),
        ("JAX (CPU backend)", "7.4x slower"),
    ] {
        let ours = &row(&rows, "implementation", name)["vs_cpu"];
        let (o, o_dir) = ours.split_once(' ').unwrap();
        let (p, p_dir) = paper.split_once(' ').unwrap();
        assert_eq!(o_dir, p_dir, "{name}: {ours} vs paper {paper}");
        let (o, p) = (num(o).unwrap(), num(p).unwrap());
        assert!(
            (o / p - 1.0).abs() <= 0.07,
            "{name}: {ours} vs paper {paper}"
        );
    }
}

#[test]
fn fig4_out_of_memory_cells_peak_and_ordering_match_the_paper() {
    let rows = table("fig4_process_scaling");
    let procs: Vec<u32> = rows.iter().map(|r| r["procs"].parse().unwrap()).collect();
    assert_eq!(procs, [1, 2, 4, 8, 16, 32, 64]);
    for r in &rows {
        let p: u32 = r["procs"].parse().unwrap();
        assert_ne!(r["cpu_s"], "OOM", "cpu at {p}");
        assert_eq!(r["jax_s"] == "OOM", p == 1 || p == 64, "jax at {p}");
        assert_eq!(r["omp_s"] == "OOM", p == 64, "omp at {p}");
        if let (Ok(jax), Ok(omp)) = (r["jax_s"].parse::<f64>(), r["omp_s"].parse::<f64>()) {
            assert!(omp < jax, "omp beats jax at {p}: {omp} vs {jax}");
        }
    }
    let peak = rows
        .iter()
        .filter_map(|r| Some((num(&r["jax_speedup"])?, &r["procs"])))
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .unwrap();
    assert_eq!(peak.1, "8", "jax peaks at 8 procs, not {peak:?}");
}

#[test]
fn fig6_orderings_match_the_paper() {
    let rows = table("fig6_per_kernel");
    let kernels: Vec<_> = rows
        .iter()
        .filter(|r| num(&r["omp_speedup"]).is_some())
        .collect();
    assert_eq!(kernels.len(), 8);
    let omp = |r: &BTreeMap<String, String>| num(&r["omp_speedup"]).unwrap();
    let best = kernels
        .iter()
        .max_by(|a, b| omp(a).total_cmp(&omp(b)))
        .unwrap();
    let worst = kernels
        .iter()
        .min_by(|a, b| omp(a).total_cmp(&omp(b)))
        .unwrap();
    assert_eq!(best["kernel"], "stokes_weights_IQU");
    assert_eq!(worst["kernel"], "template_offset_project_signal");
    let healpix = row(&rows, "kernel", "pixels_healpix");
    assert!(omp(healpix) > num(&healpix["jax_speedup"]).unwrap());
}

#[test]
fn mps_penalty_is_none_at_one_process_per_gpu_and_rises_with_procs() {
    let rows = table("ablation_mps");
    assert_eq!(rows[0]["procs"], "4");
    assert_eq!(rows[0]["penalty"], "1.00x");
    let penalties: Vec<f64> = rows.iter().map(|r| num(&r["penalty"]).unwrap()).collect();
    assert!(penalties.windows(2).all(|w| w[1] > w[0]), "{penalties:?}");
}

#[test]
fn naive_data_movement_is_slower_for_both_ports() {
    let rows = table("ablation_data_movement");
    for kind in ["OmpTarget", "Jit"] {
        let runtime = |policy: &str| -> f64 {
            rows.iter()
                .find(|r| r["implementation"] == kind && r["policy"] == policy)
                .unwrap_or_else(|| panic!("no {kind} {policy} row"))["runtime_s"]
                .parse()
                .unwrap()
        };
        assert!(runtime("Naive") > runtime("Tracked"), "{kind}");
    }
}

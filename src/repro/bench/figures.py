"""Per-figure / per-table experiment definitions (Section 5 of the paper).

Every experiment produces two kinds of tables:

* ``*_paper_scale`` — the paper's original configuration grid, with times
  obtained from the performance model (exact operation counts priced on
  the TeraStat node description and the α–β network model).  These are the
  series to compare against the published figures: the absolute seconds
  are modeled, but the ordering, ratios and crossovers are determined by
  the counted work, which is exact.

* ``*_measured`` — a geometrically scaled-down configuration actually
  executed on the reproduction host (real wall-clock seconds, real
  simulated-MPI traffic).  These validate that the implemented code paths
  behave as the model says at a size the container can hold.

The experiments register themselves with the harness registry, so both the
CLI (``repro-bench fig5``) and the pytest benchmarks can enumerate them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..baselines import cosma_multiply, mkl_gemm_t, mkl_syrk, pdsyrk
from ..core import (
    NaiveWorkspace,
    StrassenWorkspace,
    ata_multiplications,
    fast_strassen,
    strassen_multiplications,
)
from ..cache.model import default_cache_model
from ..config import configured
from ..distributed import ata_distributed, costs as dcosts
from ..engine import default_engine
from ..parallel import ata_shared
from ..perfmodel import (
    XEON_E5_2630V3,
    ata_model_flops,
    effective_gflops,
    effective_gflops_rect,
    model_distributed_ata,
    model_distributed_caps,
    model_distributed_cosma,
    model_distributed_pdsyrk,
    model_sequential_ata,
    model_sequential_gemm,
    model_sequential_strassen,
    model_sequential_syrk,
    model_shared_ata,
    model_shared_syrk,
    percent_of_peak,
)
from ..scheduler import parallel_levels_distributed, parallel_levels_shared
from .harness import register, time_callable
from .reporting import ExperimentTable
from .workloads import (
    FIG3_SIZES,
    FIG5_CORES,
    FIG5_MATRICES,
    FIG6_MATRICES,
    FIG6_PROCESSES,
    TABLE1_SIZES,
    random_matrix,
)

__all__ = ["fig3", "fig4", "fig5", "fig6", "table1",
           "ablation_flops", "ablation_workspace", "ablation_levels",
           "ablation_communication"]


# ---------------------------------------------------------------------------
# Figure 3: sequential AtA vs MKL dsyrk
# ---------------------------------------------------------------------------

@register("fig3", "Sequential AtA vs MKL dsyrk (time and effective GFLOPs)",
          "Figure 3 (a, b)")
def fig3(measured_sizes: Optional[Sequence[int]] = None,
         paper_sizes: Sequence[int] = FIG3_SIZES,
         repeats: int = 1) -> List[ExperimentTable]:
    machine = XEON_E5_2630V3
    paper = ExperimentTable(
        "fig3_paper_scale", "modeled single-core seconds / effective GFLOPs, double precision",
        ["n", "ata_seconds", "dsyrk_seconds", "ata_eff_gflops", "dsyrk_eff_gflops",
         "ata_speedup_over_dsyrk"])
    for n in paper_sizes:
        t_ata = model_sequential_ata(n, machine).total_seconds
        t_syrk = model_sequential_syrk(n, machine).total_seconds
        paper.add_row(n, t_ata, t_syrk,
                      effective_gflops(n, t_ata, r=1),
                      effective_gflops(n, t_syrk, r=1),
                      t_syrk / t_ata)
    paper.add_note("paper reports the gap growing with n; the modeled ratio tends to "
                   "the n^3 / n^{log2 7} asymptotics")

    measured = ExperimentTable(
        "fig3_measured", "measured seconds: default matmul_ata vs one bound ?syrk call",
        ["n", "ata_seconds", "dsyrk_seconds", "ata_eff_gflops", "dsyrk_eff_gflops",
         "ata_over_dsyrk"])
    sizes = measured_sizes if measured_sizes is not None else [1024, 2048]
    engine = default_engine()
    for n in sizes:
        a = random_matrix(n, n, seed=n)
        # Engine-routed: repeats after the first replay the cached plan, so
        # the measured best-of reflects the amortised (serving) cost.
        run_ata = time_callable(lambda: engine.matmul_ata(a), repeats=repeats)
        run_syrk = time_callable(lambda: mkl_syrk(a), repeats=repeats)
        measured.add_row(n, run_ata.seconds, run_syrk.seconds,
                         effective_gflops(n, run_ata.seconds, r=1),
                         effective_gflops(n, run_syrk.seconds, r=1),
                         run_ata.seconds / run_syrk.seconds)
    measured.add_note("at n*n <= base_case_elements (2**20 by default) AtA is itself "
                      "one ?syrk leaf, so the paper's claim is only tested above it; "
                      "EXPERIMENTS.md reports the single-threaded outcome on the "
                      "container (one dsyrk wins)")
    return [paper, measured]


# ---------------------------------------------------------------------------
# Figure 4: FastStrassen vs MKL dgemm
# ---------------------------------------------------------------------------

@register("fig4", "Sequential FastStrassen vs MKL dgemm (time and effective GFLOPs)",
          "Figure 4 (a, b)")
def fig4(measured_sizes: Optional[Sequence[int]] = None,
         paper_sizes: Sequence[int] = FIG3_SIZES,
         repeats: int = 1) -> List[ExperimentTable]:
    machine = XEON_E5_2630V3
    paper = ExperimentTable(
        "fig4_paper_scale", "modeled single-core seconds / effective GFLOPs (r = 2)",
        ["n", "strassen_seconds", "dgemm_seconds", "strassen_eff_gflops",
         "dgemm_eff_gflops", "strassen_speedup_over_dgemm"])
    for n in paper_sizes:
        t_str = model_sequential_strassen(n, machine).total_seconds
        t_gemm = model_sequential_gemm(n, machine).total_seconds
        paper.add_row(n, t_str, t_gemm,
                      effective_gflops(n, t_str, r=2),
                      effective_gflops(n, t_gemm, r=2),
                      t_gemm / t_str)

    measured = ExperimentTable(
        "fig4_measured", "measured single-core seconds on scaled-down sizes",
        ["n", "strassen_seconds", "dgemm_seconds", "strassen_eff_gflops", "dgemm_eff_gflops"])
    # large enough that the default base case recurses (2n^2 > 2**20)
    sizes = measured_sizes if measured_sizes is not None else [1024, 2048]
    for n in sizes:
        a = random_matrix(n, n, seed=n)
        b = random_matrix(n, n, seed=n + 1)
        run_str = time_callable(lambda: default_engine().matmul_atb(a, b),
                                repeats=repeats)
        run_gemm = time_callable(lambda: mkl_gemm_t(a, b), repeats=repeats)
        measured.add_row(n, run_str.seconds, run_gemm.seconds,
                         effective_gflops(n, run_str.seconds, r=2),
                         effective_gflops(n, run_gemm.seconds, r=2))
    return [paper, measured]


# ---------------------------------------------------------------------------
# Figure 5: shared memory AtA-S vs MKL ssyrk
# ---------------------------------------------------------------------------

@register("fig5", "AtA-S vs multi-threaded MKL ssyrk while varying the core count",
          "Figure 5 (a-f)")
def fig5(measured_shapes: Optional[Sequence[Tuple[int, int]]] = None,
         measured_cores: Optional[Sequence[int]] = None,
         paper_shapes: Sequence[Tuple[int, int]] = FIG5_MATRICES,
         paper_cores: Sequence[int] = FIG5_CORES) -> List[ExperimentTable]:
    machine = XEON_E5_2630V3
    paper = ExperimentTable(
        "fig5_paper_scale",
        "modeled seconds / effective GFLOPs vs cores P (16-thread setup, single precision)",
        ["m", "n", "cores", "ata_s_seconds", "ssyrk_seconds",
         "ata_s_eff_gflops", "ssyrk_eff_gflops"])
    machine32 = machine.for_dtype(np.float32)
    for m, n in paper_shapes:
        for cores in paper_cores:
            t_ata = model_shared_ata(n, cores, machine32, m=m, threads=16).total_seconds
            t_syrk = model_shared_syrk(n, cores, machine32, m=m, threads=16).total_seconds
            paper.add_row(m, n, cores, t_ata, t_syrk,
                          effective_gflops_rect(m, n, t_ata, r=1),
                          effective_gflops_rect(m, n, t_syrk, r=1))
    paper.add_note("time drops by ~1/4 at every complete parallel level and "
                   "plateaus beyond 8 physical cores, as in the paper")

    measured = ExperimentTable(
        "fig5_measured",
        "measured critical-path seconds on scaled shapes (simulated cores)",
        ["m", "n", "threads", "ata_s_critical_path_seconds", "ssyrk_seconds",
         "parallel_levels"])
    shapes = measured_shapes if measured_shapes is not None else [(300, 300), (600, 50)]
    cores_grid = measured_cores if measured_cores is not None else [2, 4, 8, 16]
    for m, n in shapes:
        a = random_matrix(m, n, seed=m * 31 + n, dtype=np.float32)
        syrk_run = time_callable(lambda: mkl_syrk(a))
        for threads in cores_grid:
            _, report, _tree = ata_shared(a, threads=threads, executor="simulated",
                                          return_report=True)
            measured.add_row(m, n, threads, report.critical_path_time, syrk_run.seconds,
                             parallel_levels_shared(threads))
    return [paper, measured]


# ---------------------------------------------------------------------------
# Figure 6: distributed AtA-D vs pdsyrk vs CAPS vs COSMA
# ---------------------------------------------------------------------------

@register("fig6", "AtA-D vs MKL pdsyrk vs CAPS vs COSMA on distributed processes",
          "Figure 6 (a-i)")
def fig6(measured_shapes: Optional[Sequence[Tuple[int, int]]] = None,
         measured_processes: Optional[Sequence[int]] = None,
         paper_shapes: Sequence[Tuple[int, int]] = FIG6_MATRICES,
         paper_processes: Sequence[int] = FIG6_PROCESSES) -> List[ExperimentTable]:
    machine = XEON_E5_2630V3
    paper = ExperimentTable(
        "fig6_paper_scale",
        "modeled seconds / effective GFLOPs / % of peak vs process count (1 core per process)",
        ["m", "n", "processes", "ata_d_seconds", "pdsyrk_seconds", "caps_seconds",
         "cosma_seconds", "ata_d_eff_gflops", "pdsyrk_eff_gflops",
         "ata_d_pct_peak", "pdsyrk_pct_peak"])
    for m, n in paper_shapes:
        square = (m == n)
        for p in paper_processes:
            t_ata = model_distributed_ata(n, p, machine).total_seconds
            t_pd = model_distributed_pdsyrk(n, p, machine).total_seconds
            t_caps = model_distributed_caps(n, p, machine).total_seconds if square else None
            t_cosma = model_distributed_cosma(n, p, machine, m=m).total_seconds
            eg_ata = effective_gflops_rect(m, n, t_ata, r=1)
            eg_pd = effective_gflops_rect(m, n, t_pd, r=1)
            # For the % of theoretical peak the paper switches AtA-D's
            # numerator to the AtA complexity of Eq. 3 (Section 5.5).
            ata_rate = ata_model_flops(n) * (m / n) / (t_ata * 1e9)
            paper.add_row(m, n, p, t_ata, t_pd, t_caps, t_cosma, eg_ata, eg_pd,
                          percent_of_peak(ata_rate, machine, p),
                          percent_of_peak(eg_pd, machine, p))
    paper.add_note("CAPS is square-only, as in the paper (no 60Kx5K entry)")

    measured = ExperimentTable(
        "fig6_measured",
        "measured wall seconds and traffic on scaled shapes over the simulated MPI layer",
        ["m", "n", "processes", "ata_d_seconds", "pdsyrk_seconds", "cosma_seconds",
         "ata_d_total_bytes", "pdsyrk_total_bytes", "ata_d_root_messages",
         "parallel_levels"])
    shapes = measured_shapes if measured_shapes is not None else [(192, 192), (384, 64)]
    procs = measured_processes if measured_processes is not None else [4, 8, 16]
    for m, n in shapes:
        a = random_matrix(m, n, seed=m + n)
        for p in procs:
            run_ata = time_callable(lambda: ata_distributed(a, processes=p, return_stats=True))
            c_ata, stats_ata = run_ata.result
            run_pd = time_callable(lambda: pdsyrk(a, processes=p, return_stats=True))
            _c_pd, stats_pd = run_pd.result
            b = a[:, : max(1, n // 2)]
            run_cosma = time_callable(lambda: cosma_multiply(a, b, processes=p))
            measured.add_row(m, n, p, run_ata.seconds, run_pd.seconds, run_cosma.seconds,
                             stats_ata.total_bytes, stats_pd.total_bytes,
                             stats_ata.root_messages, parallel_levels_distributed(p))
    return [paper, measured]


# ---------------------------------------------------------------------------
# Table 1: shared memory vs distributed memory on very large matrices
# ---------------------------------------------------------------------------

@register("table1", "Shared-memory (16 cores) vs distributed-memory (96 cores) AtA",
          "Table 1")
def table1(measured_sizes: Optional[Sequence[int]] = None,
           paper_sizes: Sequence[int] = TABLE1_SIZES) -> List[ExperimentTable]:
    machine = XEON_E5_2630V3
    paper = ExperimentTable(
        "table1_paper_scale",
        "modeled SM (16 cores) vs DM (6 nodes x 16 cores) seconds and speed-up",
        ["n", "sm_seconds", "dm_seconds", "speedup"])
    paper_reported = {30_000: 2.13, 40_000: 2.42, 50_000: 2.71, 60_000: 6.69}
    for n in paper_sizes:
        sm = model_shared_ata(n, cores=16, machine=machine, threads=16).total_seconds
        dm = model_distributed_ata(n, 6, machine, cores_per_process=16).total_seconds
        paper.add_row(n, sm, dm, sm / dm)
    paper.add_note("paper-reported speed-ups: " +
                   ", ".join(f"{k}: {v}x" for k, v in paper_reported.items()))
    paper.add_note("the 60K outlier (6.69x) is caused by SM memory exhaustion on the "
                   "64 GB node, which the flop-only model does not capture")

    measured = ExperimentTable(
        "table1_measured",
        "measured critical-path (SM, simulated 16 cores) vs wall (DM, 6 simulated ranks)",
        ["n", "sm_seconds", "dm_seconds", "speedup"])
    sizes = measured_sizes if measured_sizes is not None else [256, 384]
    for n in sizes:
        a = random_matrix(n, n, seed=n * 7)
        _, report, _ = ata_shared(a, threads=16, executor="simulated", return_report=True)
        sm_t = report.critical_path_time
        run_dm = time_callable(lambda: ata_distributed(a, processes=6))
        measured.add_row(n, sm_t, run_dm.seconds,
                         sm_t / run_dm.seconds if run_dm.seconds > 0 else None)
    return [paper, measured]


# ---------------------------------------------------------------------------
# Ablations: the design choices DESIGN.md calls out
# ---------------------------------------------------------------------------

@register("ablation_flops", "Operation-count ratio AtA / Strassen (the 2/3 claim of Eq. 3)",
          "Section 3.2, Eq. 3")
def ablation_flops(sizes: Sequence[int] = (64, 128, 256, 512, 1024, 2048, 4096, 8192)
                   ) -> List[ExperimentTable]:
    table = ExperimentTable(
        "ablation_flops", "exact multiplication counts with a 64-element base case",
        ["n", "ata_multiplications", "strassen_multiplications", "ratio", "classical_syrk"])
    cache = default_cache_model().with_capacity(64)
    for n in sizes:
        ata_m = ata_multiplications(n, n, cache=cache)
        str_m = strassen_multiplications(n, n, n, cache=cache)
        table.add_row(n, ata_m, str_m, ata_m / str_m, n * n * (n + 1) // 2)
    table.add_note("the ratio approaches 2/3 from above as n grows (Eq. 3)")
    return [table]


@register("ablation_workspace", "FastStrassen pre-allocated workspace vs per-step allocation",
          "Section 3.3 / Figure 4 discussion")
def ablation_workspace(n: int = 384, repeats: int = 3) -> List[ExperimentTable]:
    table = ExperimentTable(
        "ablation_workspace", "measured seconds with the two workspace strategies",
        ["n", "strategy", "seconds", "allocations", "allocated_elements"])
    a = random_matrix(n, n, seed=11)
    b = random_matrix(n, n, seed=12)

    def run_naive_once():
        naive = NaiveWorkspace(dtype=a.dtype)
        fast_strassen(a, b, workspace=naive)
        return naive

    # the workspace strategy only matters while Strassen recurses: run in
    # the paper's L1 base case, not the default (where small n is one leaf)
    with configured(base_case_elements=4096):
        ws = StrassenWorkspace(n, n, n, dtype=a.dtype)
        run_pre = time_callable(lambda: (ws.reset(), fast_strassen(a, b, workspace=ws)),
                                repeats=repeats)
        run_naive = time_callable(run_naive_once, repeats=repeats)
    table.add_row(n, "pre-allocated (FastStrassen)", run_pre.seconds, 3, ws.total_elements)
    naive_ws = run_naive.result
    table.add_row(n, "allocate per recursive step", run_naive.seconds,
                  naive_ws.allocations, naive_ws.allocated_elements)
    table.add_note("the pre-allocated strategy bounds scratch space by 3/2 n^2 (Eq. 4); "
                   "base case pinned to the paper's 4096 elements")
    return [table]


@register("ablation_levels", "Parallel-level step functions of Eq. 5 and Eq. 6",
          "Section 4.1.2 / 4.2.2")
def ablation_levels(max_processes: int = 64) -> List[ExperimentTable]:
    table = ExperimentTable(
        "ablation_levels", "levels and leaf-cost reduction factor per worker count",
        ["P", "levels_shared", "levels_distributed", "leaf_fraction_shared",
         "leaf_fraction_distributed"])
    for p in range(1, max_processes + 1):
        ls = parallel_levels_shared(p)
        ld = parallel_levels_distributed(p)
        table.add_row(p, ls, ld, 4.0 ** (-ls), 4.0 ** (-ld))
    return [table]


@register("ablation_communication",
          "Measured AtA-D traffic vs the Prop. 4.2 latency/bandwidth bounds",
          "Proposition 4.2")
def ablation_communication(sizes: Sequence[int] = (128, 256),
                           processes: Sequence[int] = (4, 8, 16)) -> List[ExperimentTable]:
    table = ExperimentTable(
        "ablation_communication",
        "root-rank messages and words: measured (simulated MPI) vs analytic bound",
        ["n", "processes", "root_messages_measured", "root_messages_bound",
         "root_words_measured", "root_words_bound"])
    for n in sizes:
        a = random_matrix(n, n, seed=n)
        itemsize = a.dtype.itemsize
        for p in processes:
            _, stats = ata_distributed(a, processes=p, return_stats=True)
            table.add_row(n, p, stats.root_messages, dcosts.latency_messages(n, p),
                          stats.root_bytes / itemsize, dcosts.bandwidth_words(n, p))
    table.add_note("bounds are asymptotic (big-O with constant 1); measured values should "
                   "have the same order of magnitude and the same growth in P and n")
    return [table]

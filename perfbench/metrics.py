"""What each metric measures and what it should move.

Names, units, directions and bounds live in BENCHMARK.json, whose schema
has no room for these notes.  Workload names refer to workloads.py.
"""

MOVES = {
    # end to end
    "wall_s": "time to solution: median wall time of one fresh CLI sweep process",
    "observer_steps_per_s": "sum over requested cells of trials * k, per median wall second",
    "cpu_s": "median user + system CPU of the sweep process (wait4)",
    "peak_rss_mb": "median peak RSS of the sweep process (wait4)",
    "setup_s": "median wall of a fresh `spinrelay analytic` process over the same mode, N "
               "and k: interpreter start, imports, argument parsing, closed forms",
    "cell_pass_share": "1 - failed cells / cells attempted; a cell fails when missing, when "
                       "|z| > z-max, or when it differs from the first run with the same seed",
    # per layer
    "sphere.rotate_towards.calls": "wall_s, observer_steps_per_s on qubit_chain and "
                                   "optimal_grid; no change on optimal_tables",
    "sphere.rotate_towards.rows": "as sphere.rotate_towards.calls",
    "sphere.rotate_towards.self_s": "as sphere.rotate_towards.calls",
    "sphere.rotate_towards.self_share": "as sphere.rotate_towards.calls; at least 0.6 on "
                                        "qubit_chain in spinrelay 0.1.0. Self time summed "
                                        "over threads, so it can exceed 1 with two workers",
    "sphere.sample_uniform_sphere.rows": "as sphere.rotate_towards.calls",
    "sphere.sample_uniform_sphere.self_s": "as sphere.rotate_towards.calls",
    "qubit.chain_dots_single.calls": "wall_s and peak_rss_mb on qubit_chain",
    "qubit.chain_dots_single.trial_steps": "wall_s and peak_rss_mb on qubit_chain",
    "qubit.chain_dots_single.self_s": "wall_s and peak_rss_mb on qubit_chain",
    "qubit.useful_step_share": "observer steps needed (longest chain per law) over steps "
                               "simulated, 6/21 on qubit_chain in spinrelay 0.1.0; wall_s "
                               "and peak_rss_mb on qubit_chain",
    "encoding.OutcomeDensity.sample.self_s": "includes the lazy inverse-CDF table build; "
                                             "wall_s on optimal_tables, partly on optimal_grid",
    "encoding.OutcomeDensity.sample.total_share": "sample with its children over traced wall; "
                                                  "at least 0.9 on optimal_tables in "
                                                  "spinrelay 0.1.0",
    "legendre.legendre_series.calls": "wall_s on optimal_tables, partly on optimal_grid",
    "legendre.legendre_series.points": "wall_s on optimal_tables, partly on optimal_grid",
    "legendre.legendre_series.self_s": "wall_s on optimal_tables, partly on optimal_grid",
    "encoding.outcome_density.calls": "wall_s on optimal_grid",
    "encoding.density_reuse": "distinct N over density builds, 20/60 on optimal_grid in "
                              "spinrelay 0.1.0; wall_s on optimal_grid",
    "encoding.chain_dots_nspin.trial_steps": "wall_s on optimal_grid",
    "encoding.chain_dots_nspin.self_s": "wall_s on optimal_grid",
    "encoding.optimal_encoding.self_s": "the eigensolve, under 1% everywhere: no change in "
                                        "wall_s predicted",
    "sweep.mc_estimate_delta.calls": "wall_s and cpu_s on optimal_grid",
    "sweep.mc_estimate_delta.self_s": "wall_s and cpu_s on optimal_grid",
    "sweep.cell_s.p50": "wall_s and cpu_s on optimal_grid",
    "sweep.cell_s.max": "the slowest cell bounds the 2-worker wall; wall_s on optimal_grid",
    "sweep.worker_busy_share": "sum of cell time over sweep wall * workers; wall_s and "
                               "cpu_s on optimal_grid",
    "sweep.failed_cell_share": "grid cells failing in any traced run, over cells: 1/6 on "
                               "qubit_chain in spinrelay 0.1.0 (known phi != 0 defect), 0 "
                               "elsewhere on most seeds (optimal_tables fails one z-gate "
                               "on seeds 10, 16, 56 of 0-59); cell_pass_share",
    "sweep.inv_var_per_s": "sum over cells of 1/mc_stderr^2 per untraced in-process wall "
                           "second: precision bought per second, so estimator changes show "
                           "as well as speed. Not end to end: on optimal_tables far-tail "
                           "outcomes make it vary by IQR/median 0.6-1.8 between seeds at "
                           "any trial count",
    "records.McEstimate.from_samples.self_s": "wall_s on qubit_chain",
    "sweep.records_to_bytes.self_s": "wall_s on qubit_chain",
    "sweep.records_to_bytes.bytes": "wall_s on qubit_chain",
    "sweep.build_id.self_s": "setup_s (a git subprocess)",
    "cli.self_s": "cli.main minus the layers it calls; setup_s",
    "rng.RandomStream.generator.calls": "a change means the random-stream layout changed",
    "rng.RandomStream.child.calls": "a change means the random-stream layout changed",
    "trace.wall_s": "wall of the traced cli.main; the base of every share",
    "trace.coverage_share": "traced wall covered by the layers' spans, leaving out the "
                            "driver spans cli.main, sweep.run_sweep and "
                            "sweep.mc_estimate_delta; at least 0.9 everywhere",
    "trace.overhead_share": "traced over untraced in-process wall, minus 1",
}

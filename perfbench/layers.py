"""Per-layer metrics and the self-time breakdown of one traced detect run.

Every ``*_s`` metric is self time: the summed durations of a layer's spans
minus the time their traced callees took, so the metrics of the detect
process add up to its wall time.  On the process pool the engine and
numerics spans run in the workers; their sums are worker time.
"""

from __future__ import annotations

import numpy as np

from tracer import parent_index, self_times

# name -> unit, in BENCHMARK.json order.
METRICS = {
    "numerics.mvn_exp_neg_linear_s": "s",
    "numerics.mvn_exp_neg_linear_calls": "count",
    "numerics.mvn_gflop_computed": "GFLOP",
    "numerics.phi_factor_s": "s",
    "numerics.phi_factor_calls": "count",
    "numerics.phi_refresh_s": "s",
    "numerics.phi_refresh_calls": "count",
    "numerics.phi_refresh_frac": "frac",
    "engine.update_theta_s": "s",
    "engine.update_phi_s": "s",
    "engine.update_g_s": "s",
    "engine.update_r_s": "s",
    "engine.update_slab_s": "s",
    "engine.update_gate_s": "s",
    "engine.init_state_s": "s",
    "engine.compute_elbo_s": "s",
    "engine.fit_loop_self_s": "s",
    "engine.fit_gene_ms_p50": "ms",
    "engine.fit_gene_ms_p90": "ms",
    "engine.iterations_total": "count",
    "engine.iterations_p50": "count",
    "engine.iterations_p90": "count",
    "engine.retry_iterations": "count",
    "engine.nonconverged_frac": "frac",
    "splines.select_degree_s": "s",
    "splines.zinb_mle_s": "s",
    "splines.zinb_mle_calls": "count",
    "splines.zinb_mle_ms_p50": "ms",
    "splines.zinb_mle_none_frac": "frac",
    "splines.build_design_s": "s",
    "dataio.load_s": "s",
    "dataio.load_mb_per_s": "MB/s",
    "dataio.filter_s": "s",
    "dataio.write_report_s": "s",
    "selection.build_report_s": "s",
    "cli.setup_self_s": "s",
    "cli.fit_self_s": "s",
    "cli.tail_self_s": "s",
    "cli.fit_phase_s": "s",
    "cli.pool_efficiency": "frac",
    "trace.wall_s": "s",
    "trace.overhead_frac": "frac",
    "trace.spans": "count",
    # The run's mean untraced detect wall time and reference kernel time:
    # the raw figures behind the rescaled end-to-end times.
    "bench.detect_wall_s": "s",
    "bench.reference_s": "s",
}


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans, side, t_popen, t_exit, workers, data_bytes):
    """Per-layer metrics of one traced run (all but ``trace.overhead_frac`` and ``bench.*``).

    ``spans`` is the child's span arrays, ``side`` its sidecar, ``t_popen``
    and ``t_exit`` the parent's clock readings around the detect process.
    Returns (metrics, breakdown) where breakdown maps each parent-process
    layer to its self time and sums to the traced wall time.
    """
    names = spans["names"][spans["name"]]
    dur = spans["end"] - spans["start"]
    own = self_times(spans["sid"], spans["parent"], spans["start"], spans["end"])
    pidx = parent_index(spans["sid"], spans["parent"])

    def pick(*wanted):
        return np.isin(names, wanted)

    def self_s(*wanted):
        return float(own[pick(*wanted)].sum())

    def calls(*wanted):
        return int(pick(*wanted).sum())

    marks = side["marks"]
    design_end, fit_end = marks["design_end"], marks["fit_end"]
    wall = t_exit - t_popen
    fit_phase = fit_end - design_end

    # Parent-process time outside every span, split at the phase marks.
    top = (spans["parent"] < 0) & ((spans["sid"] >> 32) == side["pid"])
    phases = {"setup": (t_popen, design_end), "fit": (design_end, fit_end),
              "tail": (fit_end, t_exit)}
    unattributed = {}
    for phase, (lo, hi) in phases.items():
        inside = top & (spans["start"] >= lo) & (spans["start"] < hi)
        unattributed[phase] = (hi - lo) - float(dur[inside].sum())

    iterations = np.array([g[0] for g in side["genes"]], dtype=float)
    converged = np.array([g[1] for g in side["genes"]], dtype=bool)
    n_failed = sum(1 for g in side["genes"] if g[2])
    fit_ms = 1e3 * dur[pick("engine.fit_gene")]
    zinb = pick("splines.zinb_mle")
    n_zinb = int(zinb.sum())
    phi_calls = calls("numerics.phi_factor")
    refresh_calls = calls("numerics.phi_refresh")
    fit_parent = np.zeros(names.size, dtype=bool)
    fit_parent[pidx >= 0] = names[pidx[pidx >= 0]] == "engine.fit_gene"
    failed_attempts = int((spans["err"] & fit_parent).sum())
    load_s = self_s("dataio.load_dataset")

    metrics = {
        "numerics.mvn_exp_neg_linear_s": self_s("numerics.mvn_exp_neg_linear"),
        "numerics.mvn_exp_neg_linear_calls": calls("numerics.mvn_exp_neg_linear"),
        "numerics.mvn_gflop_computed":
            float(spans["note"][pick("numerics.mvn_exp_neg_linear")].sum()) / 1e9,
        "numerics.phi_factor_s": self_s("numerics.phi_factor"),
        "numerics.phi_factor_calls": phi_calls,
        "numerics.phi_refresh_s": self_s("numerics.phi_refresh"),
        "numerics.phi_refresh_calls": refresh_calls,
        "numerics.phi_refresh_frac": refresh_calls / phi_calls if phi_calls else 0.0,
        "engine.update_theta_s": self_s("engine.update_theta"),
        "engine.update_phi_s": self_s("engine.update_phi"),
        "engine.update_g_s": self_s("engine.update_g"),
        "engine.update_r_s": self_s("engine.update_r"),
        "engine.update_slab_s": self_s("engine.update_sigma", "engine.update_a",
                                       "engine.update_alpha"),
        "engine.update_gate_s": self_s("engine.update_u", "engine.update_p",
                                       "engine.update_q"),
        "engine.init_state_s": self_s("engine.init_state"),
        "engine.compute_elbo_s": self_s("engine.compute_elbo"),
        "engine.fit_loop_self_s": self_s("engine.fit_gene"),
        "engine.fit_gene_ms_p50": _pct(fit_ms, 50),
        "engine.fit_gene_ms_p90": _pct(fit_ms, 90),
        "engine.iterations_total": int(iterations.sum()),
        "engine.iterations_p50": _pct(iterations, 50),
        "engine.iterations_p90": _pct(iterations, 90),
        "engine.retry_iterations": max(failed_attempts - n_failed, 0),
        "engine.nonconverged_frac":
            float((~converged).sum() / converged.size) if converged.size else 0.0,
        "splines.select_degree_s": self_s("splines.select_degree"),
        "splines.zinb_mle_s": self_s("splines.zinb_mle"),
        "splines.zinb_mle_calls": n_zinb,
        "splines.zinb_mle_ms_p50": _pct(1e3 * dur[zinb], 50),
        "splines.zinb_mle_none_frac":
            float(spans["note"][zinb].sum()) / n_zinb if n_zinb else 0.0,
        "splines.build_design_s": self_s("splines.build_design"),
        "dataio.load_s": load_s,
        "dataio.load_mb_per_s": data_bytes / 1e6 / load_s if load_s > 0 else 0.0,
        "dataio.filter_s": self_s("dataio.filter_dataset"),
        "dataio.write_report_s": self_s("dataio.write_report"),
        "selection.build_report_s": self_s("selection.build_report"),
        "cli.setup_self_s": unattributed["setup"],
        "cli.fit_self_s": unattributed["fit"],
        "cli.tail_self_s": unattributed["tail"],
        "cli.fit_phase_s": fit_phase,
        "cli.pool_efficiency":
            float(dur[pick("cli.fit_task")].sum()) / (workers * fit_phase),
        "trace.wall_s": wall,
        "trace.spans": int(names.size),
    }

    in_parent = (spans["sid"] >> 32) == side["pid"]
    breakdown = {"parent": {}, "workers": {}}
    for side_name, mask in (("parent", in_parent), ("workers", ~in_parent)):
        for name in np.unique(names[mask]):
            breakdown[side_name][str(name)] = float(own[mask & (names == name)].sum())
    for phase, value in unattributed.items():
        breakdown["parent"][f"cli.{phase}_self"] = value
    breakdown["parent_sum_s"] = sum(breakdown["parent"].values())
    breakdown["wall_s"] = wall
    return metrics, breakdown

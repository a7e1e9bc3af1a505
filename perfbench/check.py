"""Checks on the output of every benchmarked detect run."""

from __future__ import annotations

import math

from svjoint import dataio, metrics


class CheckError(Exception):
    """A detect run produced output the benchmark does not accept."""


def check_report(path, survivors, truth_ids, truth_flags):
    """Validate one report; return (meta, f1, fpr).

    The report must parse with `dataio.read_report`, hold exactly one row
    per gene that survives filtering (in dataset order), and carry finite
    gate expectations.  F1 and FPR come from `svjoint.metrics` exactly as
    `svjoint evaluate` computes them: filtered genes count as unselected.
    """
    try:
        meta, rows = dataio.read_report(path)
    except (dataio.DataError, ValueError, KeyError, IndexError, OSError) as exc:
        raise CheckError(f"report does not parse: {exc}") from exc
    ids = [r["gene_id"] for r in rows]
    if ids != list(survivors):
        missing = sorted(set(survivors) - set(ids))
        extra = sorted(set(ids) - set(survivors))
        raise CheckError(
            f"report rows do not match the {len(survivors)} surviving genes: "
            f"{len(ids)} rows, missing {missing[:5]}, unexpected {extra[:5]}"
        )
    for r in rows:
        values = (r["u_tilde"], r["e_u1"], r["e_u2"])
        if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
            raise CheckError(f"gene {r['gene_id']}: gate expectation not finite in [0, 1]")
    for key in ("degree", "gamma2", "n_failed"):
        if key not in meta:
            raise CheckError(f"report header lacks {key!r}")
    selected = {r["gene_id"] for r in rows if r["selected"]}
    _, fpr, f1 = metrics.metrics(metrics.confusion(selected, truth_ids, truth_flags))
    return meta, f1, fpr


def check_header_agreement(metas, degree):
    """All reports of a run share degree and gamma2; a fixed degree is honoured."""
    seen = {(m["degree"], m["gamma2"]) for m in metas}
    if len(seen) > 1:
        raise CheckError(f"degree/gamma2 differ across runs: {sorted(seen)}")
    if degree != "auto" and metas and metas[0]["degree"] != degree:
        raise CheckError(f"report degree {metas[0]['degree']} != requested {degree}")

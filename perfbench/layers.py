"""Where the traced run wraps the program, and the per-layer metrics.

Modules import by name, so each function is wrapped at the name its caller
looks up: ``gasgate.cli.load_csv`` for the CLI's loads,
``gasgate.evaluate.featurize`` for featurizing inside CV folds, and so on.
"""

from __future__ import annotations

from gasgate import cli, evaluate, logistic, svm, synth

from spans import ancestor_names, self_times


def _rows(result, args):
    return {"rows": len(result)}


def _kernel(result, args):
    return {"entries": int(result.size), "bytes": int(result.nbytes)}


def _svm_fit(result, args):
    return {"updates": len(result.objective_trace) - 1,
            "n_sv": int(result.support_vectors.shape[0]),
            "converged": bool(result.converged)}


def _decision(result, args):
    model = args[0]
    return {"rows": int(result.shape[0]), "n_sv": int(model.support_vectors.shape[0])}


def _lr_fit(result, args):
    return {"converged": bool(result.converged)}


#: (owner, attribute, span name, annotate) for every wrapped call site
POINTS = (
    (cli, "load_csv", "data.load_csv", _rows),
    (cli, "fit_normalization", "data.normalize", None),
    (cli, "featurize", "data.featurize", None),
    (cli, "atomic_write_text", "data.write", None),
    (cli, "save_model", "model_io.save", None),
    (cli, "load_model", "model_io.load", None),
    (cli, "cross_validate", "evaluate.cross_validate", None),
    (cli, "penalty_sweep", "evaluate.penalty_sweep", None),
    (cli, "explosion_interval", "logistic.interval", None),
    (evaluate, "fit_fold", "evaluate.fold", None),
    (evaluate, "fit_normalization", "data.normalize", None),
    (evaluate, "featurize", "data.featurize", None),
    (evaluate, "fit_svm", "svm.fit", _svm_fit),
    (evaluate, "fit_logistic", "logistic.fit", _lr_fit),
    (svm, "kernel_matrix", "kernels.matrix", _kernel),
    (svm.SvmModel, "decision_values", "svm.decision", _decision),
    (logistic, "apply_normalization", "data.point_featurize", None),
    (logistic, "penalized_log_likelihood", "logistic.loglik", None),
)

#: wrapped while inputs are generated, outside the timed passes
SETUP_POINTS = ((synth, "generate", "synth.generate", None),)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass (root spans are ``cli.<command>``)."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def ids(name):
        return by_name.get(name, [])

    def total(name, attr=None):
        if attr is None:
            return sum(spans[i].duration for i in ids(name))
        return sum(spans[i].attrs[attr] for i in ids(name))

    def ratio(num, den):
        return num / den if den else 0.0

    def under(name, *outer):
        return [i for i in ids(name) if set(outer) <= set(ancestor_names(spans, i))]

    fits = ids("svm.fit")
    updates = total("svm.fit", "updates")
    fit_self = sum(own[i] for i in fits)
    decisions = ids("svm.decision")
    predict_rows = sum(spans[i].attrs["rows"] for i in under("data.load_csv", "cli.predict"))
    scored_entries = sum(spans[i].attrs["entries"]
                         for i in under("kernels.matrix", "svm.decision", "cli.predict"))
    intervals = ids("logistic.interval")
    fold_s = total("evaluate.fold")
    fold_fit_s = sum(spans[i].duration for name in ("svm.fit", "logistic.fit")
                     for i in under(name, "evaluate.fold"))
    return {
        "data.load_csv_s": total("data.load_csv"),
        "data.rows_parsed": total("data.load_csv", "rows"),
        "data.normalize_s": total("data.normalize"),
        "data.featurize_s": total("data.featurize"),
        "data.point_featurize_calls": len(ids("data.point_featurize")),
        "data.write_s": total("data.write"),
        "kernels.s": total("kernels.matrix"),
        "kernels.calls": len(ids("kernels.matrix")),
        "kernels.entries": total("kernels.matrix", "entries"),
        "kernels.bytes_computed": total("kernels.matrix", "bytes"),
        "svm.fits": len(fits),
        "svm.updates": updates,
        "svm.fit_self_s": fit_self,
        "svm.us_per_update": 1e6 * ratio(fit_self, updates),
        "svm.unconverged": sum(not spans[i].attrs["converged"] for i in fits),
        "svm.n_sv": ratio(total("svm.decision", "n_sv"), len(decisions)),
        "svm.decision_s": total("svm.decision"),
        "svm.kernel_entries_per_row": ratio(scored_entries, predict_rows),
        "logistic.fit_s": total("logistic.fit"),
        "logistic.loglik_evals": len(ids("logistic.loglik")),
        "logistic.unconverged": sum(not spans[i].attrs["converged"] for i in ids("logistic.fit")),
        "logistic.interval_s": total("logistic.interval"),
        "logistic.prob_evals_per_interval": ratio(
            len(under("data.point_featurize", "logistic.interval")), len(intervals)),
        "evaluate.folds": len(ids("evaluate.fold")),
        "evaluate.fold_s": fold_s,
        "evaluate.fit_share": ratio(fold_fit_s, fold_s),
        "model_io.save_s": total("model_io.save"),
        "model_io.load_s": total("model_io.load"),
        "cli.self_s": sum(own[i] for i, s in enumerate(spans) if s.parent is None),
    }


"""Training, prediction rules, risk evaluation, and certified bounds.

Training builds the uncertainty set from the data, minimizes the learning
objective over an anchor instance pool (the training instances by default),
and then solves the companion problem that certifies a lower bound on the
error probability of the learned randomized rule. Both bounds come out of
the learning stage itself; no holdout is involved.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import estimate, features, objective, parallel
from .dataset import NormalizationStats, apply_normalizer, fit_normalizer
from .solver import (FLOOR_TOLERANCE, SolverConfig, UnboundedObjectiveError,
                     DivergenceError, lp_fits, solve)

log = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1

# Uniform-fallback threshold for the normalization constant of the rule.
EPS_NUM = 1e-12


@dataclass
class MrcModel:
    mu_star: np.ndarray
    phi_star: float
    minimax_risk: float                  # upper bound, clamped to [0, 1]
    lower_bound: float | None            # lower bound, clamped; None if skipped
    uncertainty: estimate.UncertaintySet
    feature_spec: features.FeatureMapSpec
    normalization: NormalizationStats | None
    instance_anchor: np.ndarray          # pool defining phi, normalized space
    label_names: tuple
    variant: str = "standard"            # or "fixed_marginal"
    mu_lower: np.ndarray | None = None   # solution of the lower-bound problem
    raw_bounds: dict = field(default_factory=dict)
    solver_info: dict = field(default_factory=dict)
    runs: dict = field(default_factory=dict)  # SolverRun of "upper", "lower"; not serialized
    learning_rows: int | None = None     # None if fixed-marginal; not serialized

    @property
    def num_classes(self):
        return self.feature_spec.num_classes


def _clamp(value):
    return min(1.0, max(0.0, value))


def train(data, spec=None, *, lambda_mode="practical", lambda0=0.3, delta=0.05,
          rademacher_R=None, solver_config=None, anchor=None,
          variant="standard", normalize=True, repair="auto",
          compute_lower=True):
    """Learn a minimax risk classifier from a Dataset.

    `anchor` optionally supplies the instance pool over which the support
    function is evaluated (raw space; training instances by default).
    `repair` controls the feasibility fix-up when the restricted uncertainty
    set is empty: "auto" repairs after an unboundedness signal, "always"
    repairs up front, "never" propagates the error.
    """
    if spec is None:
        spec = features.rff_spec(data.num_classes, data.d)
    stats, X, unc, psi = estimate_uncertainty(
        data, spec, lambda_mode=lambda_mode, lambda0=lambda0, delta=delta,
        rademacher_R=rademacher_R, normalize=normalize)
    if anchor is not None:  # else the training set is the pool, mapped once
        X = np.atleast_2d(np.asarray(anchor, dtype=float))
        if stats is not None:
            X = (X - stats.mean) / stats.std
        psi = features.scalar_feature_matrix(spec, X)
    return fit(unc, X, psi, spec, solver_config or SolverConfig(), variant=variant,
               repair=repair, compute_lower=compute_lower,
               normalization=stats, label_names=data.label_names)


def estimate_uncertainty(data, spec, *, lambda_mode="practical",
                         lambda0=0.3, delta=0.05, rademacher_R=None,
                         normalize=True):
    """Estimation step of training: normalize, then estimate tau and lambda.

    Returns (normalization stats or None, normalized instances, uncertainty
    set, the instances' scalar features psi under `spec`).
    """
    stats = None
    X = data.instances
    if normalize:
        stats = fit_normalizer(data)
        X = apply_normalizer(stats, data).instances
    y = data.labels
    n = data.n

    if spec.num_classes != data.num_classes:
        raise ValueError("feature spec class count does not match the data")
    if spec.d != data.d:
        raise ValueError("feature spec dimensionality does not match the data")

    psi = features.scalar_feature_matrix(spec, X)
    want_var = lambda_mode in ("bernstein", "practical")
    tau, var = estimate.tau_and_variance_from_scalars(
        psi, y, spec.num_classes, want_variance=want_var and n >= 2)
    C = features.feature_bound(spec, X)
    family_size = features.block_dim(spec)

    if lambda_mode == "hoeffding":
        lam = np.full(tau.size, estimate.lambda_hoeffding(
            C, family_size, spec.num_classes, delta, n))
    elif lambda_mode == "bernstein":
        lam = estimate.lambda_bernstein(
            C, family_size, spec.num_classes, delta, n, var)
    elif lambda_mode == "rademacher":
        if rademacher_R is None:
            raise ValueError("lambda_mode='rademacher' needs rademacher_R")
        counts = np.bincount(y, minlength=spec.num_classes + 1)[1:]
        lam = estimate.lambda_rademacher(
            C, rademacher_R, delta, n, counts, features.block_labels(spec))
    elif lambda_mode == "practical":
        lam = estimate.lambda_practical(lambda0, var, n)
    else:
        raise ValueError(f"unknown lambda_mode {lambda_mode!r}")

    provenance = {
        "lambda_mode": lambda_mode, "delta": delta, "lambda0": lambda0,
        "rademacher_R": rademacher_R, "C": C, "n": n,
    }
    return stats, X, estimate.UncertaintySet(tau, lam, provenance), psi


def fit(uncertainty, anchor, psi, spec, solver_config, *, variant="standard",
        repair="auto", compute_lower=True, normalization=None, label_names=()):
    """Training core over a fixed uncertainty set and a normalized anchor pool.

    `psi` holds the anchor's scalar features under `spec`; the repair, the
    learning problem and the lower problem all use it. Minimizes the
    learning objective, reads the randomized rule off the solution and, for
    the standard variant, solves the companion problem that certifies the
    lower bound on its error probability. Under repair "auto", either solve
    proving the set empty (a value below its floor, or a lower bound above
    the upper one) repairs the set, and both are solved again on it.
    """
    if repair not in ("auto", "always", "never"):
        raise ValueError(f"unknown repair policy {repair!r}")
    if variant not in ("standard", "fixed_marginal"):
        raise ValueError(f"unknown variant {variant!r}")
    notices = []
    if repair == "always":
        uncertainty, changed = _repair(uncertainty, psi, spec.num_classes, variant)
        if changed:
            notices.append("uncertainty set repaired up front")
            log.info("feasibility repair adjusted the uncertainty set")

    def solve_on(unc):
        return _fit_once(unc, anchor, psi, spec, solver_config, variant,
                         compute_lower, normalization, label_names)

    try:
        model = solve_on(uncertainty)
    except (UnboundedObjectiveError, DivergenceError) as exc:
        if repair != "auto":
            raise
        log.warning("solve failed (%s); repairing the uncertainty set", exc)
        notices.append(f"repaired after: {exc}")
        model = solve_on(_repair(uncertainty, psi, spec.num_classes, variant)[0])
    model.solver_info["notices"] = notices
    return model


def _fit_once(unc, anchor, psi, spec, solver_config, variant, compute_lower,
              normalization, label_names):
    """One fit on a fixed uncertainty set, with no repair: the learning
    solve and, when asked for, the lower-bound solve."""
    problem = objective.learning_problem(unc, psi, spec.num_classes)
    # the fixed-marginal objective averages the instance maxima
    if variant == "fixed_marginal":
        problem = dataclasses.replace(problem, average=True)
    run = solve(problem, solver_config)
    # phi* and the rule come from the anchor's scores under mu*, read off the
    # learning problem's own scalar features
    scores = problem.scores(run.best_mu)
    model = MrcModel(
        mu_star=run.best_mu,
        phi_star=float(objective.phi_per_instance(scores).max()),
        minimax_risk=_clamp(run.best_value), lower_bound=None,
        uncertainty=unc, feature_spec=spec, normalization=normalization,
        instance_anchor=anchor, label_names=label_names, variant=variant,
        raw_bounds={"upper": run.best_value},
        solver_info={
            "method": run.method,
            "status": run.status,
            "iterations": run.iterations_done,
            "upper_certificate": run.certificate,
        },
        runs={"upper": run},
        learning_rows=None if problem.average else problem.num_rows,
    )
    if compute_lower and variant == "standard":
        h = _rule_matrix_from_scores(scores, model.phi_star, model.num_classes)
        low_problem = objective.lower_from_upper(
            objective.build_upper_bound_problem(unc, psi, h))
        low_run = solve(low_problem, solver_config)
        model.raw_bounds["lower"] = _lower_raw(low_problem, low_run, run.best_value)
        model.lower_bound = _clamp(model.raw_bounds["lower"])
        model.mu_lower = low_run.best_mu
        model.solver_info["lower_certificate"] = low_run.certificate
        model.runs["lower"] = low_run
    return model


def _lower_raw(low, run, upper_raw):
    """The raw lower bound that `run` certifies on the negated problem `low`,
    refused above the raw upper bound: on a nonempty uncertainty set the
    rule's best-case risk is at most its worst-case risk, and each bound is
    on its side of it, however inexact the solve."""
    lower_raw = low.reported_value(run.best_value)
    if lower_raw > upper_raw + FLOOR_TOLERANCE:
        raise UnboundedObjectiveError(
            f"lower bound {lower_raw:.6g} exceeds upper bound {upper_raw:.6g}: "
            "the uncertainty set restricted to the instance pool is empty")
    return lower_raw


def _repair(unc, psi, num_classes, variant):
    tau2, lam2 = estimate.ensure_feasible(unc.tau, unc.lam, psi, num_classes, variant)
    changed = not (np.array_equal(tau2, unc.tau) and np.array_equal(lam2, unc.lam))
    prov = dict(unc.provenance)
    prov["repaired"] = changed
    return estimate.UncertaintySet(tau2, lam2, prov), changed


def _rule_matrix_from_scores(scores, phi_star, num_classes):
    """Randomized rule values h(y|x) row-wise from per-label scores."""
    raw = np.maximum(scores - phi_star, 0.0)
    c = raw.sum(axis=1, keepdims=True)
    h = np.full_like(raw, 1.0 / num_classes)
    np.divide(raw, c, out=h, where=c > EPS_NUM)
    return h


def batch_scores(model, X):
    """Per-label scores Phi(x, y)^T mu* of raw instances; shape (n, classes)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if model.normalization is not None:
        X = (X - model.normalization.mean) / model.normalization.std
    return features.score_matrix(model.feature_spec, X, model.mu_star)


def rule_from_scores(model, scores):
    """Both rules of the model read off per-label scores.

    Returns (labels, h): the deterministic rule's labels in 1..K (the largest
    score, ties to the smallest label) and the randomized rule h(y|x). The
    standard variant thresholds the scores at phi* and backs off to uniform
    where every score falls below it; the fixed-marginal variant thresholds
    each instance at its own support-function value.
    """
    labels, h, renormalized = rule_rows(model, scores)
    warn_renormalized(renormalized)
    return labels, h


def rule_rows(model, scores):
    """(labels, h, count): rule_from_scores without its warning, and the
    number of rows the fixed-marginal rule renormalized."""
    labels = np.argmax(scores, axis=1) + 1
    if model.variant != "fixed_marginal":
        return labels, _rule_matrix_from_scores(scores, model.phi_star,
                                                model.num_classes), 0
    h = np.maximum(scores - objective.phi_per_instance(scores)[:, None], 0.0)
    sums = h.sum(axis=1)
    off = np.abs(sums - 1.0) > 1e-9
    h[off] /= sums[off, None]
    return labels, h, int(off.sum())


def warn_renormalized(count):
    """Log one warning for `count` renormalized rule rows, if any."""
    if count:
        log.warning("renormalizing %d rule rows that summed off 1 by >1e-9", count)


def predict_proba(model, X):
    """Label distribution of the randomized rule at each instance.

    Rows sum to 1; if every score falls below the support-function value the
    rule backs off to uniform.
    """
    return rule_from_scores(model, batch_scores(model, X))[1]


def predict(model, X):
    """Deterministic rule: the label with the largest score (ties to smallest)."""
    return rule_from_scores(model, batch_scores(model, X))[0]


def evaluate(model, test):
    """Randomized risk and deterministic error on a held-out Dataset."""
    if test.n == 0:
        raise ValueError("evaluate needs a nonempty dataset")
    labels, h = rule_from_scores(model, batch_scores(model, test.instances))
    rows = np.arange(test.n)
    randomized = float(np.mean(1.0 - h[rows, test.labels - 1]))
    deterministic = float(np.mean(labels != test.labels))
    return {"randomized_risk": randomized, "deterministic_error": deterministic}


@dataclass(frozen=True)
class RuleBounds:
    """A certified interval on a rule's error probability: the raw values
    of the bounds, and `lower`/`upper` read clamped to [0, 1]."""
    lower_raw: float
    upper_raw: float
    runs: dict = field(default_factory=dict)  # SolverRun of "lower", "upper", if solved

    @property
    def lower(self):
        return _clamp(self.lower_raw)

    @property
    def upper(self):
        return _clamp(self.upper_raw)


def rule_bounds(uncertainty, psi, h, solver_config=None):
    """Certified lower/upper bounds on the expected loss of an arbitrary rule.

    `psi` holds the pool's scalar features, (n, B), and `h` the rule
    evaluations h(y|x) as an (n, classes) matrix.
    """
    high = objective.build_upper_bound_problem(uncertainty, psi, h)
    return _pair_bounds(high, solver_config or SolverConfig())


def deterministic_rule_bounds(model, solver_config=None):
    """rule_bounds of the model's deterministic rule over its anchor pool,
    which is mapped once. A config without a method solves with the LP when
    the problems fit it (lp_fits), and with easm_restart otherwise."""
    psi = features.scalar_feature_matrix(model.feature_spec, model.instance_anchor)
    labels = rule_rows(model, psi @ model.mu_star.reshape(model.num_classes, -1).T)[0]
    high = objective.build_upper_bound_problem(model.uncertainty, psi,
                                               np.eye(model.num_classes)[labels - 1])
    cfg = solver_config or SolverConfig()
    method = cfg.method or ("lp" if lp_fits(high) else "easm_restart")
    return _pair_bounds(high, dataclasses.replace(cfg, method=method))


def _pair_bounds(high, solver_config):
    """The interval of upper-bound problem `high`, solved beside its negation."""
    low = objective.lower_from_upper(high)
    low_run, high_run = parallel.ordered_map(
        lambda problem: solve(problem, solver_config), [low, high])
    return RuleBounds(_lower_raw(low, low_run, high_run.best_value),
                      high_run.best_value, {"lower": low_run, "upper": high_run})


def hoeffding_lambda(model, delta):
    """max(lambda, the Hoeffding width at `delta`): C and n from provenance,
    the family size |F| from the feature map."""
    prov = model.uncertainty.provenance
    C, n = (_field_number(prov.get(key), f"provenance.{key}") for key in ("C", "n"))
    width = estimate.lambda_hoeffding(C, features.block_dim(model.feature_spec),
                                      model.num_classes, delta, n)
    return np.maximum(model.uncertainty.lam, width)


def high_confidence_bounds(model, lambda_delta):
    """Widen the learning-time bounds to a coverage-level confidence vector.

    lambda_delta must dominate the training confidence vector component-wise;
    the interval endpoints move by the weighted L1 norms of the two solution
    vectors.
    """
    lam = model.uncertainty.lam
    lambda_delta = np.asarray(lambda_delta, dtype=float)
    if lambda_delta.shape != lam.shape:
        raise ValueError("lambda_delta has the wrong length")
    if not np.all(np.isfinite(lambda_delta)):
        raise ValueError("lambda_delta must be finite")
    if np.any(lambda_delta < lam - 1e-12):
        raise ValueError("lambda_delta must dominate the training lambda")
    if model.mu_lower is None or model.lower_bound is None:
        raise ValueError("model carries no lower-bound solve")
    gap = lambda_delta - lam
    return RuleBounds(model.lower_bound - float(gap @ np.abs(model.mu_lower)),
                      model.minimax_risk + float(gap @ np.abs(model.mu_star)))


def epsilon_s(num_instances, m, num_classes, delta):
    """Approximation-error rate of a size-s anchor pool (vacuous for small s)."""
    if num_instances < 1:
        raise ValueError("need at least one instance")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    s = num_instances
    inner = (4.0 + num_classes * (m + 1) * math.log(s)
             + math.log(num_classes / delta)) / s
    return 6.0 * num_classes * math.sqrt(inner)


def save_model(model, path):
    """Serialize to versioned JSON (frequencies regenerate from the seed)."""
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "variant": model.variant,
        "mu_star": model.mu_star.tolist(),
        "phi_star": model.phi_star,
        "minimax_risk": model.minimax_risk,
        "lower_bound": model.lower_bound,
        "mu_lower": None if model.mu_lower is None else model.mu_lower.tolist(),
        "tau": model.uncertainty.tau.tolist(),
        "lambda": model.uncertainty.lam.tolist(),
        "provenance": model.uncertainty.provenance,
        "feature_spec": features.spec_to_dict(model.feature_spec),
        "normalization": None if model.normalization is None else {
            "mean": model.normalization.mean.tolist(),
            "std": model.normalization.std.tolist(),
        },
        "instance_anchor": model.instance_anchor.tolist(),
        "label_names": list(model.label_names),
        "raw_bounds": model.raw_bounds,
        "solver_info": model.solver_info,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


_MODEL_FIELDS = ("variant", "mu_star", "phi_star", "minimax_risk", "lower_bound",
                 "mu_lower", "tau", "lambda", "feature_spec", "normalization",
                 "instance_anchor", "label_names")


def _field_array(value, name, shape):
    """`value` as a finite float array of `shape` (None matches any length)."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"model field {name!r} is not a numeric array") from None
    if arr.ndim != len(shape) or any(
            want is not None and got != want for got, want in zip(arr.shape, shape)):
        raise ValueError(f"model field {name!r} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"model field {name!r} holds non-finite values")
    return arr


def _field_number(value, name):
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ValueError(f"model field {name!r} must be a finite number")
    return value


def _field_spec(value):
    """The feature map of a model file's 'feature_spec' object."""
    if not isinstance(value, dict):
        raise ValueError("model field 'feature_spec' must be an object")
    # D and seed are null for the identity map
    for key, least, nullable in (("num_classes", 1, False), ("d", 1, False),
                                 ("D", 1, True), ("seed", 0, True)):
        count = value.get(key)
        if count is None and nullable:
            continue
        if isinstance(count, bool) or not isinstance(count, int) or count < least:
            raise ValueError(f"model field 'feature_spec.{key}' must be an "
                             f"integer of at least {least}")
    if value.get("sigma") is not None:
        _field_number(value["sigma"], "feature_spec.sigma")
    # older files carry include_constant; only its false value is still computed
    if value.get("include_constant") not in (None, False):
        raise ValueError("model field 'feature_spec.include_constant' must be "
                         "false: no constant feature is computed")
    try:
        return features.spec_from_dict(value)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"model field 'feature_spec' is malformed: {exc!r}") from None


def _field_bounds(payload):
    """(minimax_risk, lower_bound, raw_bounds) of a model file: every raw
    bound is a finite number, and each reported bound lies in [0, 1] and
    equals its raw bound clamped, when that is present."""
    raw = payload.get("raw_bounds", {})
    for key, value in raw.items():
        _field_number(value, f"raw_bounds.{key}")
    bounds = []
    for name, side in (("minimax_risk", "upper"), ("lower_bound", "lower")):
        value = payload[name]
        if value is not None or side == "upper":
            if not 0.0 <= _field_number(value, name) <= 1.0:
                raise ValueError(f"model field {name!r} must lie in [0, 1]")
        if side in raw and value != _clamp(raw[side]):
            raise ValueError(f"model field {name!r} must equal raw_bounds.{side} "
                             "clamped to [0, 1]")
        bounds.append(value)
    return (*bounds, raw)


def load_model(path):
    """Read a model file; a malformed one raises ValueError naming the field."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("model file does not hold a JSON object")
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format {payload.get('format_version')!r}")
    missing = [name for name in _MODEL_FIELDS if name not in payload]
    if missing:
        raise ValueError(f"model file lacks the field(s) {', '.join(missing)}")
    if payload["variant"] not in ("standard", "fixed_marginal"):
        raise ValueError(f"model field 'variant' has unknown value {payload['variant']!r}")
    for name in ("provenance", "raw_bounds", "solver_info"):
        if not isinstance(payload.get(name, {}), dict):
            raise ValueError(f"model field {name!r} must be an object")
    spec = _field_spec(payload["feature_spec"])
    m = features.feature_dim(spec)
    d = spec.d
    norm = payload["normalization"]
    stats = None
    if norm is not None:
        if not isinstance(norm, dict):
            raise ValueError("model field 'normalization' must be an object or null")
        stats = NormalizationStats(
            _field_array(norm.get("mean"), "normalization.mean", (d,)),
            _field_array(norm.get("std"), "normalization.std", (d,)))
        if np.any(stats.std <= 0.0):
            raise ValueError("model field 'normalization.std' must be positive")
    names = payload["label_names"]
    if not isinstance(names, list) or len(names) != spec.num_classes:
        raise ValueError(
            f"model field 'label_names' must list {spec.num_classes} names")
    mu_lower = payload["mu_lower"]
    minimax_risk, lower_bound, raw_bounds = _field_bounds(payload)
    return MrcModel(
        mu_star=_field_array(payload["mu_star"], "mu_star", (m,)),
        phi_star=_field_number(payload["phi_star"], "phi_star"),
        minimax_risk=minimax_risk, lower_bound=lower_bound,
        uncertainty=estimate.UncertaintySet(
            _field_array(payload["tau"], "tau", (m,)),
            _field_array(payload["lambda"], "lambda", (m,)),
            payload.get("provenance", {}),
        ),
        feature_spec=spec,
        normalization=stats,
        instance_anchor=_field_array(payload["instance_anchor"],
                                     "instance_anchor", (None, d)),
        label_names=tuple(names),
        variant=payload["variant"],
        mu_lower=None if mu_lower is None
        else _field_array(mu_lower, "mu_lower", (m,)),
        raw_bounds=raw_bounds,
        solver_info=payload.get("solver_info", {}),
    )

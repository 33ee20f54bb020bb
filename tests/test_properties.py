"""Property tests of the CSV readers, of `mrckit predict` and of the
certified intervals (hypothesis)."""

import contextlib
import copy
import io
import json
import os
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from mrckit import classifier, cli, estimate, features, objective  # noqa: E402
from mrckit.dataset import Dataset, load_csv, load_features, save_csv  # noqa: E402
from mrckit.solver import SolverConfig  # noqa: E402
from conftest import exact_risk_finite, finite_distribution, make_blobs  # noqa: E402

finite = st.floats(allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    """A model on d = 2 identity features, trained once for the module."""
    root = tmp_path_factory.mktemp("model")
    data = root / "blobs.csv"
    save_csv(make_blobs(60, d=2, seed=0, sep=3.0), data)
    code = cli.main(["train", "--data", str(data), "--out", str(root),
                     "--features", "identity", "--solver", "lp", "--seed", "1"])
    assert code == 0
    return str(root / "model.json")


def run_predict(model_path, data, out, chunk_rows):
    """Exit code and standard error of `predict --proba`, run in process with
    `chunk_rows` rows per chunk."""
    err = io.StringIO()
    with mock.patch.object(cli, "PREDICT_CHUNK_ROWS", chunk_rows), \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["predict", "--model", model_path, "--data", str(data),
                         "--proba", "--out", str(out)])
    return code, err.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(
    lambda d: st.lists(st.lists(finite, min_size=d, max_size=d), min_size=2, max_size=30)))
def test_save_csv_round_trips_bit_for_bit(tmp_path_factory, rows):
    X = np.array(rows)
    labels = np.arange(len(rows)) % 2 + 1
    path = tmp_path_factory.mktemp("round") / "data.csv"
    save_csv(Dataset(X, labels, ("a", "b")), path)
    back = load_csv(str(path))
    assert back.instances.tobytes() == X.tobytes()
    assert np.array_equal(back.labels, labels)
    assert load_features(str(path), X.shape[1]).tobytes() == X.tobytes()


BAD_CELLS = {"": "cannot parse", "abc": "cannot parse", "nan": "non-finite",
             "inf": "non-finite", "missing": "has 1 columns", "extra": "has 4 columns"}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=st.integers(1, 40), data=st.data(), bad=st.sampled_from(sorted(BAD_CELLS)),
       chunk_rows=st.sampled_from([1, 7, 2048]))
def test_predict_rejects_malformed_cell_with_its_row(model_path, tmp_path_factory, rows,
                                                     data, bad, chunk_rows):
    bad_row = data.draw(st.integers(1, rows))
    X = make_blobs(rows, d=2, seed=5).instances.tolist()
    lines = []
    for i, (a, b) in enumerate(X, start=1):
        cells = [repr(a), repr(b)]
        if i == bad_row:
            if bad == "missing":
                cells.pop()
            elif bad == "extra":
                cells += ["a", "b"]
            else:
                cells[1] = bad
        lines.append(",".join(cells))
    root = tmp_path_factory.mktemp("bad")
    (root / "bad.csv").write_text("\n".join(lines) + "\n")
    code, err = run_predict(model_path, root / "bad.csv", root / "pred", chunk_rows)
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"row {bad_row}" in err and BAD_CELLS[bad] in err
    assert os.listdir(root / "pred") == []


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=40))
def test_streamed_predictions_match_library_per_chunk(model_path, tmp_path_factory,
                                                      rows):
    # Scores come from a matrix product whose rounding depends on its shape
    # (rows (0, 0) and (0, 1) differ in the last bit between chunks of 1 and
    # 2 rows), so files for different chunk sizes may differ in the last
    # digit. Each must hold exactly what the library computes on its chunks.
    model = classifier.load_model(model_path)
    X = np.array(rows)
    root = tmp_path_factory.mktemp("chunks")
    (root / "in.csv").write_text("".join(f"{a!r},{b!r}\n" for a, b in rows))
    for chunk_rows in (1, 7, 2048):
        out = root / f"pred{chunk_rows}"
        assert run_predict(model_path, root / "in.csv", out, chunk_rows)[0] == 0
        scores = [classifier.batch_scores(model, X[start:start + chunk_rows])
                  for start in range(0, len(X), chunk_rows)]
        lines = ["label," + ",".join(f"p_{name}" for name in model.label_names)]
        for labels, proba in (classifier.rule_from_scores(model, s) for s in scores):
            lines += [",".join([model.label_names[lab - 1], *map(repr, p)])
                      for lab, p in zip(labels, proba.tolist())]
        expected = "".join(line + "\r\n" for line in lines).encode()
        assert (out / "predictions.csv").read_bytes() == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), support=st.integers(2, 12),
       classes=st.integers(2, 3), widen=st.floats(0.0, 0.5))
def test_every_interval_sandwiches_the_exact_risk(seed, support, classes, widen):
    # tau is off the exact mean by e and lambda = 2|e|, so the distribution
    # lies in the uncertainty set; by weak duality any mu certifies its
    # bounds, so 50 ASM iterations suffice and no LP is solved
    X, px, py, prob = finite_distribution(seed, support_size=support,
                                          num_classes=classes)
    spec = features.identity_spec(classes, 2)
    tau_exact = sum(p * features.feature_map(spec, X[i], y)
                    for i, y, p in zip(px, py, prob))
    rng = np.random.default_rng([seed, 1])
    e = rng.normal(size=tau_exact.size) * 0.05
    unc = estimate.UncertaintySet(tau_exact + e, 2.0 * np.abs(e))
    psi = features.scalar_feature_matrix(spec, X)
    cfg = SolverConfig(method="asm", max_iters=50)
    model = classifier.fit(unc, X, psi, spec, cfg, repair="never",
                           label_names=tuple("abc"[:classes]))

    def holds(lower, upper, risk):
        return lower - 1e-9 <= risk <= upper + 1e-9

    risk = exact_risk_finite(model, X[px], py, prob)
    assert holds(model.lower_bound, model.minimax_risk, risk)
    hc = classifier.high_confidence_bounds(model, unc.lam + widen)
    assert holds(hc.lower, hc.upper, risk)
    labels = np.argmax(features.score_matrix(spec, X, model.mu_star), axis=1)
    for h in (np.eye(classes)[labels], rng.dirichlet(np.ones(classes), size=support)):
        rb = classifier.rule_bounds(unc, psi, h, cfg)
        assert holds(rb.lower, rb.upper, float(prob @ (1.0 - h[px, py - 1])))


@pytest.fixture(scope="module")
def rff_model(tmp_path_factory):
    """The payload of a tiny model on D = 3 random features, and the path
    of a 20-row file that `predict` reads."""
    root = tmp_path_factory.mktemp("rff")
    data = root / "blobs.csv"
    save_csv(make_blobs(20, d=2, seed=0, sep=3.0), data)
    assert cli.main(["train", "--data", str(data), "--out", str(root), "--D", "3",
                     "--max-iters", "50", "--seed", "1"]) == 0
    return json.loads((root / "model.json").read_text()), str(data)


# every field of model.json, and every field of its object-valued fields
MODEL_FIELDS = [(name,) for name in (
    "format_version", "variant", "mu_star", "phi_star", "minimax_risk",
    "lower_bound", "mu_lower", "tau", "lambda", "provenance", "feature_spec",
    "normalization", "instance_anchor", "label_names", "raw_bounds", "solver_info")]
MODEL_FIELDS += [("feature_spec", name) for name in (
    "kind", "num_classes", "d", "D", "sigma", "seed", "rng")]
MODEL_FIELDS += [("normalization", "mean"), ("normalization", "std"),
                 ("raw_bounds", "upper"), ("raw_bounds", "lower")]
MODEL_FIELDS += [("provenance", name) for name in (
    "lambda_mode", "delta", "lambda0", "rademacher_R", "C", "n")]
MODEL_FIELDS += [("solver_info", name) for name in (
    "method", "status", "iterations", "upper_certificate", "lower_certificate",
    "notices")]

DROP, LONGER = "<drop>", "<one element longer>"
REPLACEMENTS = [DROP, None, "x", True, False, 1.5, 0, -1, 3, [1.0], {"a": 1},
                LONGER, float("nan")]


def mutated(payload, path, value):
    """A copy of `payload` with the field at `path` dropped or replaced."""
    payload = copy.deepcopy(payload)
    *parents, name = path
    holder = payload
    for parent in parents:
        holder = holder[parent]
    if value == DROP:
        del holder[name]
    elif value == LONGER:
        old = holder[name]
        holder[name] = [0.5] * (len(old) + 1 if isinstance(old, list) else 2)
    else:
        holder[name] = value
    return payload


def run_on_model(payload, data, root):
    """(command, exit code, standard error) of `predict` and of a tiny-budget
    `bounds --deterministic --lambda-delta-mode hoeffding` on `payload`."""
    bad = root / "model.json"
    bad.write_text(json.dumps(payload))
    commands = {
        "predict": ["--data", data],
        "bounds": ["--deterministic", "--lambda-delta-mode", "hoeffding",
                   "--solver", "asm", "--max-iters", "20"],
    }
    results = []
    for command, flags in commands.items():
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--model", str(bad), "--out",
                             str(root / command), *flags])
        results.append((command, code, err.getvalue()))
    return results


# the model-file defects that once ended these commands in a traceback or
# a wrong bound in bounds.json
DEFECTS = [
    (("provenance",), DROP, "bounds", "provenance.C"),
    (("provenance",), "x", "predict", "provenance"),
    (("raw_bounds", "upper"), "x", "bounds", "raw_bounds.upper"),
    (("provenance", "n"), "x", "bounds", "provenance.n"),
    (("solver_info",), [1.0], "bounds", "solver_info"),
    (("feature_spec", "seed"), 1.5, "predict", "feature_spec.seed"),
    (("feature_spec", "seed"), "x", "bounds", "feature_spec.seed"),
    (("feature_spec", "d"), None, "predict", "feature_spec.d"),
    (("raw_bounds",), "x", "bounds", "raw_bounds"),
    (("raw_bounds", "upper"), float("nan"), "bounds", "raw_bounds.upper"),
    (("minimax_risk",), 7.0, "bounds", "minimax_risk"),
    (("minimax_risk",), 0.99, "bounds", "minimax_risk"),
    (("lower_bound",), -3.0, "bounds", "lower_bound"),
]


@pytest.mark.parametrize("path,value,command,field", DEFECTS)
def test_model_file_defect_names_its_field(rff_model, tmp_path, path, value, command,
                                          field):
    payload, data = rff_model
    results = {name: (code, err) for name, code, err in
               run_on_model(mutated(payload, path, value), data, tmp_path)}
    code, err = results[command]
    assert code == 1
    assert err.startswith(f"error: model field '{field}'")


def _examples(test):
    for path, value, _, _ in DEFECTS:
        test = example(path=path, value=value)(test)
    return test


@settings(max_examples=200, deadline=None, derandomize=True)
@given(path=st.sampled_from(MODEL_FIELDS), value=st.sampled_from(REPLACEMENTS))
@_examples
def test_malformed_model_file_ends_with_an_exit_code(rff_model, tmp_path_factory, path,
                                                     value):
    payload, data = rff_model
    root = tmp_path_factory.mktemp("mutated")
    for command, code, err in run_on_model(mutated(payload, path, value), data, root):
        assert code in (0, 1, 2), (command, code)
        if code:
            assert err.startswith(("error: ", "solver error: ")), (command, err)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["rff", "identity"]),
       variant=st.sampled_from(["standard", "fixed_marginal"]),
       method=st.sampled_from(["lp", "asm"]), normalize=st.booleans(),
       file_anchor=st.booleans(), lambda_mode=st.sampled_from(["practical", "hoeffding"]),
       seed=st.integers(0, 3))
def test_model_file_round_trips_byte_for_byte(tmp_path_factory, kind, variant, method,
                                              normalize, file_anchor, lambda_mode, seed):
    if variant == "fixed_marginal":
        method = "asm"  # the LP needs a max over rows
    spec = (features.rff_spec(2, 2, D=3, seed=seed) if kind == "rff"
            else features.identity_spec(2, 2))
    anchor = make_blobs(8, d=2, seed=seed + 10).instances if file_anchor else None
    model = classifier.train(
        make_blobs(20, d=2, seed=seed), spec, lambda_mode=lambda_mode,
        solver_config=SolverConfig(method=method, max_iters=50), anchor=anchor,
        variant=variant, normalize=normalize)
    root = tmp_path_factory.mktemp("save")
    classifier.save_model(model, root / "saved.json")
    classifier.save_model(classifier.load_model(root / "saved.json"), root / "again.json")
    assert (root / "saved.json").read_bytes() == (root / "again.json").read_bytes()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["rff", "identity"]),
       variant=st.sampled_from(["standard", "fixed_marginal"]),
       classes=st.integers(2, 4), scale=st.sampled_from([1e-3, 1.0, 1e3]),
       tie=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_rule_is_valid_on_random_instances(kind, variant, classes, scale, tie, seed):
    # a small model with random parameters; instances off its anchor pool too
    rng = np.random.default_rng(seed)
    spec = (features.rff_spec(classes, 2, D=3, seed=seed) if kind == "rff"
            else features.identity_spec(classes, 2))
    mu = rng.normal(size=features.feature_dim(spec)) * scale
    if tie:  # the first two classes score alike everywhere
        B = features.block_dim(spec)
        mu[B:2 * B] = mu[:B]
    anchor = rng.normal(size=(10, 2))
    m = mu.size
    model = classifier.MrcModel(
        mu_star=mu, phi_star=objective.phi(mu, anchor, spec), minimax_risk=1.0,
        lower_bound=None, uncertainty=estimate.UncertaintySet(np.zeros(m), np.zeros(m)),
        feature_spec=spec, normalization=None, instance_anchor=anchor,
        label_names=tuple("abcd"[:classes]), variant=variant)
    X = rng.normal(size=(30, 2)) * 3.0
    h = classifier.predict_proba(model, X)
    assert np.all(h >= 0.0)
    assert np.all(np.abs(h.sum(axis=1) - 1.0) <= 1e-9)
    scores = classifier.batch_scores(model, X)
    lowest_best = [min(y for y in range(1, classes + 1) if row[y - 1] == max(row))
                   for row in scores.tolist()]
    assert classifier.predict(model, X).tolist() == lowest_best

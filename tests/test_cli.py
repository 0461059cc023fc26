import csv
import dataclasses
import hashlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfpca import CsvParseError, InvalidInputError, cli
from rfpca.cli import ingest, load_model, main, read_long_csv, save_model
from rfpca.diagnostics import curve_diagnostics, mean_confidence_band
from rfpca import model
from rfpca.model import ModelConfig, fit, log_likelihood
from rfpca.selection import cross_validate, select_dimension
from rfpca.simulate import (
    Contamination,
    GridDesign,
    MonteCarloStudy,
    TrueModel,
    efficiency_study,
    monte_carlo,
    selection_study,
    simulate_dataset,
)
from oracles import reference_read_long_csv


def _write_csv(path, rows, header="id,time,value"):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def _dataset_csv(path, data):
    rows = [
        (t.id, repr(float(ti)), repr(float(v)))
        for t in data.trajectories
        for ti, v in zip(t.times, t.values)
    ]
    _write_csv(path, rows)


@pytest.fixture
def sim_csv(tmp_path):
    data, _ = simulate_dataset(
        TrueModel(), GridDesign.random_uniform(15), 40, Contamination.none(), seed=17
    )
    path = tmp_path / "data.csv"
    _dataset_csv(path, data)
    return path


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def test_ingest_single_id(tmp_path):
    path = tmp_path / "tiny.csv"
    _write_csv(path, [("a", 0.1, 1.0), ("a", 0.7, 2.0), ("a", 0.3, 1.5)])
    data = ingest(path)
    assert data.n == 1
    traj = data.trajectories[0]
    assert traj.m == 3
    np.testing.assert_array_equal(traj.times, [0.1, 0.3, 0.7])
    np.testing.assert_array_equal(traj.values, [1.0, 1.5, 2.0])
    assert data.basis.domain == (0.1, 0.7)


def test_ingest_order_independent(tmp_path, rng):
    rows = [
        (f"id{i}", round(t, 6), round(v, 6))
        for i in range(5)
        for t, v in zip(rng.uniform(0, 1, 8), rng.normal(size=8))
    ]
    p1 = tmp_path / "sorted.csv"
    p2 = tmp_path / "shuffled.csv"
    _write_csv(p1, rows)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    _write_csv(p2, shuffled)
    d1, d2 = ingest(p1), ingest(p2)
    by_id = {t.id: t for t in d2.trajectories}
    for t in d1.trajectories:
        np.testing.assert_array_equal(t.times, by_id[t.id].times)
        np.testing.assert_array_equal(t.values, by_id[t.id].values)


def test_ingest_sparse_cohort(tmp_path, rng):
    # 139 subjects, observation counts between 2 and 56
    rows = []
    counts = rng.integers(2, 57, size=139)
    counts[0], counts[1] = 2, 56
    for i, m in enumerate(counts):
        times = np.sort(rng.uniform(0, 10, m))
        for t in times:
            rows.append((f"s{i:03d}", round(float(t), 6), round(float(rng.normal()), 6)))
    path = tmp_path / "cohort.csv"
    _write_csv(path, rows)
    data = ingest(path)
    assert data.n == 139
    ms = [t.m for t in data.trajectories]
    assert min(ms) == 2 and max(ms) == 56


def test_ingest_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    _write_csv(bad_header, [("a", 0.1, 1.0)], header="id,t,value")
    with pytest.raises(CsvParseError, match="line 1"):
        read_long_csv(bad_header)

    bad_value = tmp_path / "v.csv"
    _write_csv(bad_value, [("a", 0.1, 1.0), ("a", "oops", 2.0)])
    with pytest.raises(CsvParseError, match="line 3"):
        read_long_csv(bad_value)

    empty = tmp_path / "e.csv"
    empty.write_text("id,time,value\n")
    with pytest.raises(CsvParseError, match="no data rows"):
        read_long_csv(empty)


@st.composite
def long_csv_text(draw):
    """A small well-formed long CSV: ids with commas and quotes (quoted, and
    in half the files every field quoted), rows shuffled, tied times within
    an id, blank lines anywhere."""
    ids = draw(st.lists(
        st.text(alphabet='ab ,"1', min_size=0, max_size=4), min_size=1, max_size=5, unique=True,
    ))
    rows = [
        [cid, repr(t), repr(draw(st.floats(-1e6, 1e6, allow_nan=False)))]
        for cid in ids
        for t in draw(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=6))
    ]
    rows = draw(st.permutations(rows))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n", quoting=draw(
        st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_NONNUMERIC])
    ))
    out.write("id,time,value\n")
    blank_after = draw(st.sets(st.integers(0, len(rows) - 1), max_size=3))
    for i, row in enumerate(rows):
        writer.writerow(row)
        if i in blank_after:
            out.write("\n")
    return out.getvalue()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(text=long_csv_text())
def test_read_long_csv_matches_reference_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_text(text)
    ids, times, values, m = reference_read_long_csv(path)
    curves = read_long_csv(path)
    assert curves.ids == ids
    assert curves.m.tolist() == m
    # bit patterns, so -0.0 and 0.0 must keep their file order within a tie
    assert curves.times.tobytes() == np.array(times).tobytes()
    assert curves.values.tobytes() == np.array(values).tobytes()


# pieces that reach every branch of the parser: quotes, line ends, bytes
# that are not UTF-8, multibyte text, numbers float accepts and the reader
# rejects, and plain ids and numbers
_FUZZ_PIECES = [
    b'"', b"\r", b"\n", b"\x00", b"\xff", b"\xc3", "\u00e9\u0661".encode(),
    b"1e400", b"-1e400", b"_", b"nan", b"inf", b"1_000", b" ",
    b"a", b"b", b"0", b"0.5", b"-2", b"1e-3", b".",
]
_FUZZ_NUMBERS = [b"0", b"0.5", b"-2", b"1e-3", b' "7" ', b"1e400", b"nan", b"1_000", b""]
_fuzz_field = st.lists(st.sampled_from(_FUZZ_PIECES), max_size=3).map(b"".join)
_fuzz_line = st.tuples(
    st.one_of(
        # a row that often parses
        st.tuples(_fuzz_field, *[st.sampled_from(_FUZZ_NUMBERS)] * 2).map(b",".join),
        st.lists(_fuzz_field, min_size=1, max_size=4).map(b",".join),
    ),
    st.sampled_from([b"\n", b"\r\n", b"\r", b""]),
).map(b"".join)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(body=st.one_of(st.lists(_fuzz_line, max_size=6).map(b"".join), st.binary(max_size=60)))
def test_fuzzed_csv_body_parses_or_is_csv_error(tmp_path_factory, body):
    path = tmp_path_factory.mktemp("fuzz") / "data.csv"
    path.write_bytes(b"id,time,value\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            curves = read_long_csv(path)
        except CsvParseError:
            return
    assert curves.m.sum() == curves.times.size == curves.values.size
    assert np.isfinite(curves.times).all() and np.isfinite(curves.values).all()


_GOOD_ROW = "a,0.1,1.0"


@pytest.mark.parametrize("blank_before", [False, True], ids=["", "after-blank"])
@pytest.mark.parametrize(
    "bad_row, message",
    [
        pytest.param("b,0.2", "expected 3 fields, got 2", id="too-few-fields"),
        pytest.param("b,0.2,1.0,9", "expected 3 fields, got 4", id="too-many-fields"),
        pytest.param("   ", "expected 3 fields, got 1", id="spaces-only"),
        pytest.param("b,oops,1.0", "non-numeric time or value", id="non-numeric"),
        pytest.param("b,0.2,", "non-numeric time or value", id="empty-field"),
        pytest.param("b,1_000,1.0", "non-numeric time or value", id="underscore"),
        pytest.param("b,0.2,\u0661", "non-numeric time or value", id="non-ascii-digit"),
        pytest.param("b,nan,1.0", "non-finite time or value", id="nan"),
        pytest.param("b,0.2,-inf", "non-finite time or value", id="inf"),
        # the surrogate is written as the single byte 0xff
        pytest.param("b,0.2,\udcff", "not valid UTF-8 text", id="non-utf8"),
        # a later line that is not UTF-8 comes after the first fault in file
        # order, though the reader decodes it, a chunk at a time, before the
        # parse reaches the fault
        pytest.param(
            "b,0.2\nc,0.3,1\nd,0.4,\udcff\udcfe", "expected 3 fields, got 2", id="then-non-utf8"
        ),
    ],
)
def test_malformed_line_is_named(tmp_path, bad_row, message, blank_before):
    path = tmp_path / "bad.csv"
    lines = ["id,time,value", _GOOD_ROW] + [""] * blank_before + [bad_row, "c,0.3,1.0", "d,x,y"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
    lineno = 3 + blank_before
    with pytest.raises(CsvParseError, match=rf"bad\.csv: line {lineno}: {message}$"):
        read_long_csv(path)


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("id,t,value\na,0.1,1\n", "line 1: expected header", id="bad-header"),
        pytest.param("", "line 1: expected header", id="empty-file"),
        pytest.param("id,time,value\n", "line 2: no data rows", id="header-only"),
        pytest.param("id,time,value\n\n\n", "line 2: no data rows", id="blank-lines-only"),
    ],
)
def test_header_and_empty_file_errors(tmp_path, text, message):
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(CsvParseError, match=message):
        read_long_csv(path)


def test_hot_paths_build_no_trajectories(sim_csv, monkeypatch):
    built = []
    original = model.Trajectory

    def counting(*args):
        built.append(args[0])
        return original(*args)

    monkeypatch.setattr(model, "Trajectory", counting)
    data = ingest(sim_csv, domain=(0, 1))
    config = ModelConfig(nu=1.0, d=1, tol=1e-6)
    result = fit(data, config)
    curve_diagnostics(result.params, data)
    mean_confidence_band(result.params, data, np.linspace(0, 1, 11))
    select_dimension(data, 1, "bic", config)
    cross_validate(data, config, full_fit=result)
    simulate_dataset(TrueModel(), GridDesign.random_uniform(5), 30, Contamination.none(), seed=2)
    for study in (
        efficiency_study(reps=1, n=20),
        dataclasses.replace(selection_study(reps=1, n=20), d_max=2),
    ):
        monte_carlo(dataclasses.replace(study, scenarios=study.scenarios[:2]))
    assert built == []
    # the counter sees the on-demand views
    assert len(data.trajectories) == len(built) == data.n


# ---------------------------------------------------------------------------
# model persistence
# ---------------------------------------------------------------------------

def test_model_json_round_trip(tmp_path, sim_csv):
    data = ingest(sim_csv, domain=(0, 1))
    result = fit(data, ModelConfig(nu=1.0, d=2))
    path = tmp_path / "model.json"
    save_model(path, result)
    params, meta = load_model(path)
    assert np.array_equal(params.theta, result.params.theta)
    assert np.array_equal(params.H, result.params.H)
    assert np.array_equal(params.lam, result.params.lam)
    assert params.sigma2 == result.params.sigma2
    assert params.nu == 1.0
    assert meta["converged"] == result.converged

    # nu = inf round-trips through the string form
    result_inf = fit(data, ModelConfig(nu=math.inf, d=0))
    save_model(path, result_inf)
    with open(path) as fh:
        assert json.load(fh)["nu"] == "inf"
    params_inf, _ = load_model(path)
    assert math.isinf(params_inf.nu)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_fit_command_constant_data(tmp_path, rng):
    rows = []
    for i in range(5):
        for t in np.sort(rng.uniform(0, 1, 12)):
            rows.append((f"c{i}", round(float(t), 6), 7.0))
    path = tmp_path / "const.csv"
    _write_csv(path, rows)
    out = tmp_path / "out"
    code = main([
        "fit", "--data", str(path), "--nu", "inf", "--dim", "0",
        "--domain", "0,1", "--out", str(out),
    ])
    assert code == 0
    params, _ = load_model(out / "model.json")
    grid = np.linspace(0, 1, 201)
    np.testing.assert_allclose(params.mean(grid), 7.0, atol=1e-6)
    assert (out / "diagnostics.csv").exists()


def test_nu_reads_infinity_in_any_case_and_spacing(tmp_path, sim_csv):
    out = tmp_path / "out"
    assert main(["fit", "--data", str(sim_csv), "--nu", " Infinity ", "--out", str(out)]) == 0
    with open(out / "model.json") as fh:
        assert json.load(fh)["nu"] == "inf"


def test_fit_then_diagnose_round_trip(tmp_path, sim_csv):
    # two curves get ids that CSV output must quote: a comma and a double quote
    data_csv = tmp_path / "quoted.csv"
    with open(sim_csv, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    first = rows[0][0]
    second = next(row[0] for row in rows if row[0] != first)
    renamed = {first: "a,b", second: 'say "hi"'}
    with open(data_csv, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *([renamed.get(i, i), t, v] for i, t, v in rows)])
    out = tmp_path / "out"
    code = main([
        "fit", "--data", str(data_csv), "--nu", "1", "--dim", "1",
        "--domain", "0,1", "--out", str(out),
    ])
    assert code == 0
    code = main([
        "diagnose", "--data", str(data_csv), "--model", str(out / "model.json"),
        "--out", str(out),
    ])
    assert code == 0
    text = (out / "diagnostics.csv").read_bytes()
    assert (out / "outliers.csv").read_bytes() == text
    params, _ = load_model(out / "model.json")
    data = model.Dataset(read_long_csv(data_csv), params.basis)
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["id", "residual_norm", "s", "weight", "flag"])
    writer.writerows(
        (d.id, repr(d.residual_norm), repr(d.s), repr(d.weight), int(d.outlier_flag))
        for d in curve_diagnostics(params, data)
    )
    lines = text.decode("utf-8").splitlines(keepends=True)
    assert lines == expected.getvalue().splitlines(keepends=True)
    assert sum(line.startswith(('"a,b",', '"say ""hi""",')) for line in lines) == 2
    with open(out / "band.csv") as fh:
        band = list(csv.DictReader(fh))
    assert len(band) == 201
    for row in band[:10]:
        lo, hi, c = float(row["lower"]), float(row["upper"]), float(row["center"])
        assert abs((hi - c) - (c - lo)) < 1e-9


@pytest.mark.parametrize(
    "flag", [["--grid", "0"], ["--level", "1.5"]], ids=["grid-0", "level-above-1"]
)
def test_diagnose_checks_flags_before_reading_inputs(tmp_path, capsys, flag):
    # the data file has no rows and the model file does not exist: either
    # would fail too, but the flag is checked first
    empty = tmp_path / "empty.csv"
    empty.write_text("id,time,value\n")
    code = main([
        "diagnose", "--data", str(empty), "--model", str(tmp_path / "missing.json"),
        "--out", str(tmp_path / "out"), *flag,
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"rfpca: error: {flag[0]} must be"), err


def test_select_command(tmp_path, sim_csv):
    out = tmp_path / "sel"
    code = main([
        "select", "--data", str(sim_csv), "--dmax", "2", "--criterion", "bic",
        "--nu", "1", "--domain", "0,1", "--out", str(out),
    ])
    assert code == 0
    with open(out / "selection.json") as fh:
        report = json.load(fh)
    assert report["criterion"] == "bic"
    assert len(report["per_d"]) == 3
    assert report["chosen_d"] in (0, 1, 2)


def test_select_command_cv_records_refit_iterations(tmp_path, sim_csv):
    out = tmp_path / "sel"
    code = main([
        "select", "--data", str(sim_csv), "--dmax", "1", "--criterion", "cv",
        "--nu", "1", "--tol", "1e-6", "--domain", "0,1", "--out", str(out),
    ])
    assert code == 0
    text = (out / "selection.json").read_text()
    report = json.loads(text)
    assert report["criterion"] == "cv"
    for row in report["per_d"]:
        # 40 refits, each at least one EM update past its warm start
        assert row["cv_refit_iterations"] >= 40
        assert row["cv_refits_nonconverged"] == 0
    # the same input writes the same bytes
    main([
        "select", "--data", str(sim_csv), "--dmax", "1", "--criterion", "cv",
        "--nu", "1", "--tol", "1e-6", "--domain", "0,1", "--out", str(out),
    ])
    assert (out / "selection.json").read_text() == text


def test_simulate_command_deterministic(tmp_path):
    study = {
        "mode": "estimation",
        "scenarios": [
            {"name": "clean"},
            {"name": "exo10", "kind": "exogenous_mean", "epsilon": 0.1, "K": 4.0},
        ],
        "n": 20,
        "estimators": ["inf", 1.0],
    }
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps(study))
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = main([
            "simulate", "--study", str(cfg), "--reps", "2", "--seed", "7",
            "--out", str(out),
        ])
        assert code == 0
        digests.append(hashlib.sha256((out / "study.csv").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_simulate_table_2_runs_both_sample_sizes(tmp_path):
    assert main(["simulate", "--table", "2", "--reps", "1", "--seed", "3",
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "table2.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = [
        {"n": n, **row}
        for n in (20, 60)
        for row in monte_carlo(selection_study(reps=1, seed=3, n=n))
    ]
    assert rows == [{key: str(value) for key, value in row.items()} for row in expected]


def test_simulate_flags_override_study_file(tmp_path):
    def run(name, doc, *flags):
        cfg, out = tmp_path / f"{name}.json", tmp_path / name
        cfg.write_text(json.dumps({
            "mode": "estimation", "scenarios": [{"name": "clean"}], "n": 20,
            "estimators": [1.0], **doc,
        }))
        assert main(["simulate", "--study", str(cfg), *flags, "--out", str(out)]) == 0
        with open(out / "study.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        return [int(r["reps_used"]) + int(r["reps_excluded"]) for r in rows], rows

    # the file's values apply when no flag is given
    reps, from_file = run("file", {"reps": 2, "seed": 7})
    assert reps == [2, 2]
    # a given flag wins over the file's value
    reps, from_flags = run("flags", {"reps": 3, "seed": 4}, "--reps", "2", "--seed", "7")
    assert reps == [2, 2] and from_flags == from_file


def test_every_study_file_key_reaches_the_study(tmp_path):
    # every key a study file accepts, each set off its default: a key that
    # is accepted and then ignored, or one accepted with no value here, fails
    scenario = {"name": "exo", "kind": "exogenous_pc", "epsilon": 0.2, "K": 3.0}
    doc = {"mode": "selection", "scenarios": [scenario], "estimators": [5.0, "inf"],
           "n": 30, "reps": 3, "seed": 9, "d_max": 2}
    assert tuple(doc) == cli._STUDY_KEYS and tuple(scenario) == cli._SCENARIO_KEYS
    path = tmp_path / "study.json"
    path.write_text(json.dumps(doc))
    study = cli._study_from_json(path, {})
    assert study.estimators == (5.0, math.inf) != MonteCarloStudy.estimators
    assert [scen.name for scen in study.scenarios] == ["exo"]
    for obj, settings in ((study, doc), (study.scenarios[0].contamination, scenario)):
        defaults = {f.name: f.default for f in dataclasses.fields(obj)}
        for key, value in settings.items():
            if key not in ("scenarios", "estimators", "name"):
                assert getattr(obj, key) == value != defaults[key], key

    # one key more, at either level, is an input error naming it
    for extra, bad in (
        ("criteria", doc | {"criteria": ["aic"]}),
        ("literal_scores", doc | {"scenarios": [scenario | {"literal_scores": True}]}),
    ):
        path.write_text(json.dumps(bad))
        with pytest.raises(InvalidInputError, match=f"unknown .* key '{extra}'"):
            cli._study_from_json(path, {})


def test_penalized_model_file_loglik_is_unpenalized(tmp_path, sim_csv):
    out = tmp_path / "pen"
    code = main([
        "fit", "--data", str(sim_csv), "--dim", "2", "--penalty", "0.5",
        "--domain", "0,1", "--out", str(out),
    ])
    assert code == 0
    params, meta = load_model(out / "model.json")
    ll = log_likelihood(params, ingest(sim_csv, domain=(0, 1)))
    assert abs(meta["loglik"] - ll) <= 1e-9 * abs(ll)


# the CLI prints max_iter warnings as stderr lines under Python's default
# action; the suite's error::UserWarning filter would raise them instead
_prints_max_iter_warnings = pytest.mark.filterwarnings("default:.*did not converge:UserWarning")


@_prints_max_iter_warnings
def test_nonconvergence_exit_code(tmp_path, sim_csv):
    out = tmp_path / "nc"
    code = main([
        "fit", "--data", str(sim_csv), "--nu", "1", "--dim", "1",
        "--domain", "0,1", "--max-iter", "1", "--out", str(out),
    ])
    assert code == 2
    assert (out / "model.json").exists()  # artifacts still written


def test_usage_errors(tmp_path, sim_csv):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", str(sim_csv), "--dmax", "3"])  # unknown flag for fit
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", str(sim_csv), "--nu", "-1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--table", "1", "--study", "x.json"])  # mutually exclusive
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", str(sim_csv), "--domain", "zero,one"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", str(sim_csv), "--domain", "1,2,3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", str(sim_csv), "--nu", "abc"])
    assert exc.value.code == 2


def test_missing_file_is_reported(tmp_path):
    code = main(["fit", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert code == 1


# study-file numbers that are not integers of the allowed range, or not real
# numbers at all; each ended in a raw TypeError or ValueError, or (n = 1) in a
# table of NaN cells, or (an estimator true) was read as 1, or (an estimator
# string) was parsed as a number; a scenario name that is not a string,
# which labelled its cells; and keys the study does not use, K on a clean
# scenario and d_max in an estimation study, which ran and exited 0
_BAD_STUDY_FILES = {
    "n-float": {"n": 2.5},
    "n-bool": {"n": True},
    "n-1": {"n": 1},
    "reps-float": {"reps": 1.5},
    "seed-text": {"seed": "abc"},
    "seed-float": {"seed": 1.5},
    "seed-neg": {"seed": -1},
    "dmax-float": {"mode": "selection", "d_max": 1.5},
    "K-string": {"scenarios": [{"name": "exo", "kind": "exogenous_mean", "K": "4"}]},
    "K-null": {"scenarios": [{"name": "exo", "kind": "exogenous_mean", "K": None}]},
    "estimator-bool": {"estimators": [True]},
    "estimator-text": {"estimators": ["5"]},
    "name-number": {"scenarios": [{"name": 3}]},
    "none-epsilon": {"scenarios": [{"name": "clean", "kind": "none", "epsilon": 0.3}]},
    "none-K": {"scenarios": [{"name": "clean", "kind": "none", "K": 7}]},
    "estimation-dmax": {"d_max": 2},
}

# model-file parameters that are not finite; the first two were accepted and
# gave NaN artifacts, the third failed as a singular sandwich matrix
_NONFINITE_MODELS = {
    "theta-nan": ("theta", math.nan),
    "lam-inf": ("lambda", math.inf),
    "sigma2-inf": ("sigma2", math.inf),
}

# model-file fields of the wrong JSON type; each was read as a number: d = -1
# took H's width, "5" and "0.2" were parsed, and true was read as 1; and a d
# that H's width does not match
_MISTYPED_MODELS = {
    "d-neg": ("d", -1),
    "d-wider-than-H": ("d", 2),
    "nu-text": ("nu", "5"),
    "nu-bool": ("nu", True),
    "sigma2-text": ("sigma2", "0.2"),
    "sigma2-bool": ("sigma2", True),
}

# basis fields of the wrong JSON type; 4.7 was read as a cubic basis and "4"
# was parsed, and diagnose exited 0
_MISTYPED_BASES = {
    "order-fraction": ("order", 4.7),
    "order-text": ("order", "4"),
}

# a model file of a format the reader does not know: another or no version,
# a key save_model never writes, a fit block that is not an object; each
# loaded, and diagnose exited 0. None stands for the key left out
_UNKNOWN_FORMAT_MODELS = {
    "version-99": ("version", 99),
    "version-missing": ("version", None),
    "extra-key": ("extra", 1),
    "fit-text": ("fit", "x"),
}


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["fit", "--data", "{one}"], id="fit-one-curve"),
        pytest.param(["fit", "--data", "{non_utf8}"], id="non-utf8"),
        pytest.param(["fit", "--data", "{csv}", "--max-iter", "0"], id="max-iter-0"),
        pytest.param(["fit", "--data", "{csv}", "--tol", "0"], id="tol-0"),
        pytest.param(["fit", "--data", "{csv}", "--dim", "-1"], id="dim-neg"),
        pytest.param(["fit", "--data", "{csv}", "--penalty", "-1"], id="penalty-neg"),
        pytest.param(["fit", "--data", "{csv}", "--penalty", "inf"], id="penalty-inf"),
        pytest.param(["fit", "--data", "{csv}", "--tol", "inf"], id="tol-inf"),
        pytest.param(["fit", "--data", "{csv}", "--knots", "-1"], id="knots-neg"),
        pytest.param(["fit", "--data", "{csv}", "--order", "0"], id="order-0"),
        pytest.param(["fit", "--data", "{csv}", "--domain", "0.2,0.5"], id="domain-narrow"),
        pytest.param(["select", "--data", "{csv}", "--dmax", "20"], id="dmax-above-p"),
        pytest.param(
            ["select", "--data", "{csv}", "--criterion", "bic", "--penalty", "1"],
            id="bic-penalized",
        ),
        pytest.param(
            ["diagnose", "--data", "{csv}", "--model", "{model}", "--level", "1.5"],
            id="level-above-1",
        ),
        pytest.param(
            ["diagnose", "--data", "{csv}", "--model", "{model}", "--grid", "0"], id="grid-0"
        ),
        pytest.param(
            ["diagnose", "--data", "{csv}", "--model", "{model}", "--grid", "-3"], id="grid-neg"
        ),
        pytest.param(
            ["diagnose", "--data", "{csv}", "--model", "{not_json}"], id="model-not-json"
        ),
        pytest.param(
            ["diagnose", "--data", "{csv}", "--model", "{model_no_basis}"], id="model-no-basis"
        ),
        *(
            pytest.param(["diagnose", "--data", "{csv}", "--model", f"{{model_{name}}}"],
                         id=f"model-{name}")
            for name in {
                **_NONFINITE_MODELS, **_MISTYPED_MODELS, **_MISTYPED_BASES,
                **_UNKNOWN_FORMAT_MODELS,
            }
        ),
        pytest.param(["simulate", "--study", "{study_no_estimators}"], id="study-no-estimators"),
        pytest.param(["simulate", "--study", "{study_dmax_20}"], id="study-dmax-above-p"),
        pytest.param(["simulate", "--study", "{study_repeated}"], id="study-repeated-labels"),
        pytest.param(["simulate", "--study", "{study_cauchy_twice}"], id="study-cauchy-twice"),
        pytest.param(["simulate", "--table", "1", "--reps", "0"], id="reps-0"),
        *(
            pytest.param(["simulate", "--study", f"{{study_{name}}}"], id=f"study-{name}")
            for name in _BAD_STUDY_FILES
        ),
    ],
)
def test_input_errors_exit_1_without_traceback(tmp_path, sim_csv, capsys, argv):
    one = tmp_path / "one.csv"
    _write_csv(one, [("a", 0.1, 1.0), ("a", 0.5, 2.0), ("a", 0.9, 1.5)])
    model = tmp_path / "model.json"
    save_model(model, fit(ingest(sim_csv, domain=(0, 1)), ModelConfig(nu=1.0, d=1)))
    # the byte 0xff past the reader's first chunk: the parse, not the header
    # read, meets it
    non_utf8 = tmp_path / "non_utf8.csv"
    non_utf8.write_bytes(sim_csv.read_bytes() + b"late,0.5,\xff1.0\n")
    paths = {"one": one, "csv": sim_csv, "model": model, "non_utf8": non_utf8}
    for name, text in [
        ("not_json", "not json"),
        ("model_no_basis", '{"version": 1}'),
        ("study_no_estimators", '{"scenarios": []}'),
        (
            "study_dmax_20",
            '{"mode": "selection", "scenarios": [{"name": "clean"}], '
            '"estimators": [1.0], "n": 20, "d_max": 20}',
        ),
        (
            "study_repeated",
            '{"mode": "estimation", "scenarios": [{"name": "clean"}, {"name": "clean", '
            '"kind": "exogenous_mean", "epsilon": 0.2}], "estimators": ["inf", "inf"], '
            '"n": 30, "reps": 2, "seed": 1}',
        ),
        (
            "study_cauchy_twice",
            '{"mode": "estimation", "scenarios": [{"name": "clean"}], '
            '"estimators": [1, 1.0], "n": 30, "reps": 2}',
        ),
    ]:
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    edits = {
        **_NONFINITE_MODELS, **_MISTYPED_MODELS, **_MISTYPED_BASES, **_UNKNOWN_FORMAT_MODELS,
    }
    for name, (key, value) in edits.items():
        doc = json.loads(model.read_text())
        if name in _MISTYPED_BASES:
            doc["basis"][key] = value
        elif value is None:
            del doc[key]
        elif isinstance(doc.get(key), list):
            doc[key][0] = value
        else:
            doc[key] = value
        paths[f"model_{name}"] = tmp_path / f"model_{name}.json"
        paths[f"model_{name}"].write_text(json.dumps(doc))
    for name, field in _BAD_STUDY_FILES.items():
        doc = {"mode": "estimation", "scenarios": [{"name": "clean"}], "estimators": [1.0],
               "n": 20, "reps": 1} | field
        paths[f"study_{name}"] = tmp_path / f"study_{name}.json"
        paths[f"study_{name}"].write_text(json.dumps(doc))
    argv = [arg.format(**paths) for arg in argv] + ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("rfpca: error:")
    assert "Traceback" not in err


def test_errors_from_a_file_name_the_file(tmp_path, sim_csv, capsys):
    # an error raised while building the model or the study from a file
    # keeps its message and starts with the file's path
    model = tmp_path / "model.json"
    save_model(model, fit(ingest(sim_csv, domain=(0, 1)), ModelConfig(nu=1.0, d=1)))
    doc = json.loads(model.read_text())
    mistyped = tmp_path / "mistyped.json"
    mistyped.write_text(json.dumps(doc | {"sigma2": "0.2"}))
    future = tmp_path / "future.json"
    future.write_text(json.dumps(doc | {"version": 2}))
    doc["theta"][0] = math.nan
    model.write_text(json.dumps(doc))
    study = tmp_path / "study.json"
    study.write_text(json.dumps({
        "mode": "estimation", "estimators": [1.0], "n": 20, "reps": 1,
        "scenarios": [{"name": "exo", "kind": "exogenous_mean", "K": "4"}],
    }))
    zero_nu = tmp_path / "zero_nu.json"
    zero_nu.write_text(json.dumps({
        "mode": "estimation", "estimators": [0.0], "n": 20, "reps": 1,
        "scenarios": [{"name": "clean"}],
    }))
    clean_K = tmp_path / "clean_K.json"
    clean_K.write_text(json.dumps({
        "mode": "estimation", "estimators": [1.0], "n": 20, "reps": 1,
        "scenarios": [{"name": "clean", "K": 7}],
    }))
    estimation_dmax = tmp_path / "estimation_dmax.json"
    estimation_dmax.write_text(json.dumps({
        "mode": "estimation", "estimators": [1.0], "n": 20, "reps": 1, "d_max": 2,
        "scenarios": [{"name": "clean"}],
    }))
    for argv, message in [
        (["diagnose", "--data", str(sim_csv), "--model", str(model)],
         f"{model}: theta, H and lam must be finite"),
        (["diagnose", "--data", str(sim_csv), "--model", str(mistyped)],
         f"{mistyped}: sigma2 must be a number"),
        (["diagnose", "--data", str(sim_csv), "--model", str(future)],
         f"{future}: model file version must be 1, got 2"),
        (["simulate", "--study", str(study)], f"{study}: K must be"),
        (["simulate", "--study", str(zero_nu)], f"{zero_nu}: estimators must be positive"),
        (["simulate", "--study", str(clean_K)], f"{clean_K}: scenario 'clean' sets K"),
        (["simulate", "--study", str(estimation_dmax)], f"{estimation_dmax}: study sets d_max"),
    ]:
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"rfpca: error: {message}"), err


def test_select_names_a_negative_dmax(tmp_path, sim_csv, capsys):
    # select_dimension sets the dimension of every fit, so --dmax -1 is
    # reported as d_max, not as the d of a config no fit uses
    assert main(["select", "--data", str(sim_csv), "--dmax", "-1", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("rfpca: error: d_max must be >= 0")


@pytest.mark.parametrize(
    "argv, min_lines",
    [
        (["fit", "--dim", "1", "--max-iter", "1"], 1),
        # the full fit's warning plus one per held-out refit
        (["select", "--dmax", "0", "--criterion", "cv", "--max-iter", "1"], 41),
    ],
    ids=["fit", "select-cv"],
)
@_prints_max_iter_warnings
def test_warnings_print_one_line_each(tmp_path, sim_csv, capsys, argv, min_lines):
    code = main(argv + ["--data", str(sim_csv), "--out", str(tmp_path)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) >= min_lines
    assert all(line.startswith("rfpca: warning: ") for line in lines), lines
    assert "did not converge" in lines[0]


def test_diagnose_rejects_data_outside_model_domain(tmp_path, sim_csv, capsys):
    model = tmp_path / "model.json"
    save_model(model, fit(ingest(sim_csv, domain=(0, 1)), ModelConfig(nu=1.0, d=0)))
    wide = tmp_path / "wide.csv"
    _write_csv(wide, [("a", 0.1, 1.0), ("late", 0.5, 1.0), ("late", 1.5, 2.0)])
    assert main(["diagnose", "--data", str(wide), "--model", str(model), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("rfpca: error: data incompatible with the saved model basis")
    assert "'late'" in err and "Traceback" not in err

import copy
import json
import os
import re
import signal
import subprocess
import sys
import time
import types
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expanderlab.cli import (
    DERIVED,
    KNOWN_CHECKS,
    PARAMS,
    TOLERANCES,
    ConfigError,
    Scenario,
    builtin_scenarios,
    main,
)
from expanderlab.reports import write_json


@pytest.fixture(scope="module")
def hyperbolic_doc():
    return json.loads(builtin_scenarios()["hyperbolic_expander"].read_text())


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_list_names_builtin_scenarios(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("hyperbolic_expander", "flat_torus", "torus_flow", "nil_flow"):
        assert name in out


def test_accept_exits_1_unless_every_criterion_passes(monkeypatch, capsys):
    # stub criteria stand in for the real ones, so none of those runs
    from expanderlab import acceptance

    passing = acceptance._criterion(1, "stub that passes")(lambda art: (True, {"value": 1.0}))
    failing = acceptance._criterion(2, "stub that fails")(lambda art: (False, {"value": 2.0}))
    monkeypatch.setattr(acceptance, "CRITERIA", [passing, failing])
    assert main(["accept"]) == 1
    assert "1/2 criteria passed" in capsys.readouterr().out
    monkeypatch.setattr(acceptance, "CRITERIA", [passing])
    assert main(["accept"]) == 0
    assert "1/1 criteria passed" in capsys.readouterr().out
    # there is one suite: the option that chose between two is gone
    with pytest.raises(SystemExit) as exc:
        main(["accept", "--suite", "fast"])
    assert exc.value.code == 2


def test_run_scenario_produces_report_tree(tmp_path, hyperbolic_doc):
    cfg = write_config(tmp_path, hyperbolic_doc)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    base = out / "hyperbolic_expander"
    report = json.loads((base / "report.json").read_text())
    assert report["failures"] == []
    assert report["verdicts"]["entropy.w_plus_constant"]
    assert (base / "series" / "flow.csv").exists()
    assert (base / "series" / "entropy.csv").exists()
    assert (base / "plots" / "entropy.svg").read_text().startswith("<svg")
    assert (base / "plots" / "theta.svg").exists()


def test_reports_are_bitwise_deterministic(tmp_path, hyperbolic_doc):
    cfg = write_config(tmp_path, hyperbolic_doc)
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        base = out / "hyperbolic_expander"
        blob = b"".join(
            p.read_bytes() for p in sorted(base.rglob("*")) if p.is_file()
        )
        blobs.append(blob)
    assert blobs[0] == blobs[1]


def test_malformed_json_exits_2_without_partial_files(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"schema": 1,\n  "name": oops}')
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "broken.json:2" in err  # line-anchored message
    assert not out.exists()


def test_invalid_scenario_exits_2(tmp_path, hyperbolic_doc):
    doc = dict(hyperbolic_doc)
    doc["checks"] = ["entropy", "nonsense"]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_check_failure_exits_1(tmp_path, hyperbolic_doc):
    doc = json.loads(json.dumps(hyperbolic_doc))
    doc["tolerances"]["blowdown"] = 1e-30  # unattainable: forces a failed verdict
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    report = json.loads((out / "hyperbolic_expander" / "report.json").read_text())
    assert "blowdown.scale_invariant" in report["failures"]


def test_a_run_that_raises_leaves_no_tree(tmp_path, hyperbolic_doc, monkeypatch):
    from expanderlab import cli

    def raising_check(h, tol):
        # flow.csv is written by now
        assert any(tmp_path.glob("out/.hyperbolic_expander.*/*/series/flow.csv"))
        raise RuntimeError("check failed")

    monkeypatch.setattr(cli, "check_R_lower_bound", raising_check)
    cfg = write_config(tmp_path, hyperbolic_doc)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="check failed"):
        main(["run", str(cfg), "--out", str(out)])
    assert list(out.iterdir()) == []  # neither the tree nor a temporary sibling

    # an older tree survives a failed rerun whole
    (out / "hyperbolic_expander").mkdir()
    (out / "hyperbolic_expander" / "old.txt").write_text("old")
    with pytest.raises(RuntimeError, match="check failed"):
        main(["run", str(cfg), "--out", str(out)])
    assert [p.name for p in out.rglob("*")] == ["hyperbolic_expander", "old.txt"]


def test_a_terminated_run_leaves_no_tree(tmp_path):
    # SIGTERM mid-run exits 143 and removes the temporary sibling .flat_torus.*
    out = tmp_path / "out"
    paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.Popen([sys.executable, "-m", "expanderlab.cli", "run",
                             str(builtin_scenarios()["flat_torus"]), "--out", str(out)], env=env)
    try:
        deadline = time.monotonic() + 60
        while not any(out.glob(".flat_torus.*")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
    assert list(out.iterdir()) == []


# runs `lab` with `patched` wrapped to send the process a SIGTERM right
# before or right after the real call
SIGTERM_PROBE = """
import os, signal, sys, {module}
from expanderlab.cli import main

real = {patched}

def probe(*args, **kwargs):
    if {before}:
        os.kill(os.getpid(), signal.SIGTERM)
    out = real(*args, **kwargs)
    if not {before}:
        os.kill(os.getpid(), signal.SIGTERM)
    return out

{patched} = probe
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("patched, before, left", [
    ("tempfile.mkdtemp", False, []),  # the sibling is made, its removal not yet armed
    ("shutil.rmtree", True, ["hyperbolic_expander"]),  # the finished tree is in place
])
def test_a_sigterm_as_the_sibling_is_made_or_removed_leaves_no_sibling(tmp_path, patched,
                                                                      before, left):
    out = tmp_path / "out"
    paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    script = SIGTERM_PROBE.format(module=patched.split(".")[0], patched=patched, before=before)
    proc = subprocess.run([sys.executable, "-c", script, "run",
                           str(builtin_scenarios()["hyperbolic_expander"]), "--out", str(out)],
                          env=env, timeout=120)
    assert proc.returncode == 128 + signal.SIGTERM
    assert sorted(p.name for p in out.iterdir()) == left
    if left:
        assert json.loads((out / left[0] / "report.json").read_text())["failures"] == []


def test_a_rerun_replaces_the_old_tree(tmp_path, hyperbolic_doc):
    cfg = write_config(tmp_path, hyperbolic_doc)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    base = out / "hyperbolic_expander"
    first = sorted(p.relative_to(out) for p in out.rglob("*"))
    (base / "stale.csv").write_text("stale")
    (base / "series" / "stale.csv").write_text("stale")
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.relative_to(out) for p in out.rglob("*")) == first
    assert json.loads((base / "report.json").read_text())["failures"] == []


def test_multi_scenario_threads(tmp_path, hyperbolic_doc):
    second = json.loads(json.dumps(hyperbolic_doc))
    second["name"] = "hyperbolic_copy"
    cfg = write_config(tmp_path, {"scenarios": [hyperbolic_doc, second]})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert (out / "hyperbolic_expander" / "report.json").exists()
    assert (out / "hyperbolic_copy" / "report.json").exists()


def test_threads_option_is_gone(tmp_path, hyperbolic_doc):
    cfg = write_config(tmp_path, hyperbolic_doc)
    with pytest.raises(SystemExit):
        main(["run", str(cfg), "--out", str(tmp_path / "out"), "--threads", "2"])
    assert not (tmp_path / "out").exists()


def test_target_grid_not_dividing_grid_exits_2(tmp_path, capsys):
    # the default of 12 targets per direction does not divide the 32-point grid
    doc = json.loads(builtin_scenarios()["flat_torus"].read_text())
    del doc["params"]["target_grid"]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "target_grid" in capsys.readouterr().err
    assert not out.exists()


def test_asymptotics_on_the_flat_torus_samples_inside_the_density_window(tmp_path):
    # the tail fit and the residual integral sample the immortal density,
    # which lives on [0.3, 1.2] only: they used to ask for it at 0.12.  On
    # the flat torus the entropy grows at n/2 = 1 per unit log t, and the
    # residual integrand is n/4 = 1/2, so its integral is ln(1.2/0.3)/2
    doc = json.loads(builtin_scenarios()["flat_torus"].read_text())
    doc["checks"] = ["asymptotics"]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    fitted = json.loads((out / "flat_torus" / "report.json").read_text())["fitted"]
    assert fitted["collapsed"] is True
    assert abs(fitted["w_plus_log_growth_rate"] - 1.0) < 1e-9
    assert abs(fitted["residual_integral"] - np.log(2.0)) < 1e-9


@pytest.mark.parametrize("checks", [["reduced"], ["entropy", "theta"]])
def test_reduced_checks_on_homogeneous_model_exit_2(tmp_path, capsys, checks):
    # reduced length is shot on torus and model-space histories only
    doc = json.loads(builtin_scenarios()["nil_flow"].read_text())
    doc["checks"] = checks
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "homogeneous" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", [0, -4, 3, 8.0, True, "8"])
def test_target_grid_validation(bad):
    doc = json.loads(builtin_scenarios()["flat_torus"].read_text())
    doc["params"]["target_grid"] = bad
    with pytest.raises(ConfigError, match="target_grid"):
        Scenario.from_doc(doc)


@pytest.mark.parametrize("scenario, params, word", [
    ("flat_torus", {"sigmas": [-1, 0.5]}, "sigmas"),
    ("shrinking_sphere", {"radii": [0, 0.1, 0.5, 2]}, "radii"),
    ("flat_torus", {"window_lo": 2.9, "window_hi": 5.0}, "window"),
    ("flat_torus", {"dt_cap": 0}, "dt_cap"),
    ("flat_torus", {"dt_cap": -0.05}, "dt_cap"),
    ("flat_torus", {"dt_cap": float("nan")}, "dt_cap"),
    ("flat_torus", {"dt_cap": 10**400}, "dt_cap"),
    ("flat_torus", {"sigmas": [10**400]}, "sigmas"),
    ("hyperbolic_expander", {"dt_cap": True}, "dt_cap"),
    ("flat_torus", {"retain_every": 0}, "retain_every"),
    ("flat_torus", {"retain_every": -3}, "retain_every"),
    ("flat_torus", {"retain_every": 2.5}, "retain_every"),
    ("flat_torus", {"retain_every": True}, "retain_every"),
    # values the runner used to accept, or crash on with partial output
    ("hyperbolic_expander", {"n_times": 0}, "n_times"),
    ("hyperbolic_expander", {"n_times": "x"}, "n_times"),
    ("hyperbolic_expander", {"alpha": 0.5}, "alpha"),
    ("hyperbolic_expander", {"birth_time": "x"}, "birth_time"),
    ("hyperbolic_expander", {"reduced_t": 100}, "reduced_t"),
    ("hyperbolic_expander", {"tolerances": {"blowdown": "x"}}, "tolerances"),
    ("hyperbolic_expander", {"n_times": 2.5}, "n_times"),
    ("hyperbolic_expander", {"alpha": float("nan")}, "alpha"),
    ("hyperbolic_expander", {"birth_time": float("inf")}, "birth_time"),
    ("hyperbolic_expander", {"reduced_t": "x"}, "reduced_t"),
    ("hyperbolic_expander", {"reduced_t": None}, "reduced_t"),
    ("hyperbolic_expander", {"reduced_t": 0}, "reduced_t"),
    ("flat_torus", {"reduced_t": 2.9}, "reduced_t"),
    ("hyperbolic_expander", {"tolerances": {"harnack": float("nan")}}, "tolerances"),
    ("hyperbolic_expander", {"tolerances": ["blowdown", 1e-6]}, "tolerances"),
    # a birth time at or after the harnack times, and harnack times or a
    # density window outside t_span, on every model
    ("hyperbolic_expander", {"birth_time": 100}, "birth_time"),
    ("hyperbolic_expander", {"birth_time": 8.99, "checks": ["harnack"]}, "birth_time"),
    ("nil_flow", {"t_span": [0, 0.001]}, "density window"),
    ("nil_flow", {"t_span": [0, 0.1], "checks": ["harnack"]}, "harnack times"),
    # model specs: non-finite numbers, non-integral dim or sign, not two periods
    ("nil_flow", {"model": {"frame_volume": float("inf")}}, "frame_volume"),
    ("hyperbolic_expander", {"model": {"base_volume": float("inf")}}, "base_volume"),
    ("nil_flow", {"model": {"structure_constants": [float("nan"), 0, 0]}},
     "structure_constants"),
    ("flat_torus", {"model": {"periods": [1, 1, 5]}}, "periods"),
    ("hyperbolic_expander", {"model": {"sectional_sign": 0.5}}, "sectional_sign"),
    ("hyperbolic_expander", {"model": {"dim": 2.5}}, "dim"),
    # field times, a density window, harnack times or a mu/nu time past the
    # closed-form extinction of a positive model (t = 0.25)
    ("shrinking_sphere", {"reduced_t": 0.45}, "reduced_t"),
    ("shrinking_sphere", {"checks": ["entropy"]}, "density window"),
    ("shrinking_sphere", {"checks": ["harnack"]}, "density window"),
    ("shrinking_sphere", {"t_span": [0, 0.27], "checks": ["harnack"]}, "harnack times"),
    ("shrinking_sphere", {"checks": ["asymptotics"]}, "density window"),
    ("shrinking_sphere", {"checks": ["mu_nu"]}, "mu/nu time"),
    # a repeated sigma leaves the divided differences of mu undefined
    ("flat_torus", {"sigmas": [0.5, 1.0, 0.5]}, "sigmas"),
    # params that are not an object, keys no check reads, flags that are not booleans
    ("flat_torus", {"params": [1, 2]}, "params"),
    ("flat_torus", {"params": "x"}, "params"),
    ("hyperbolic_expander", {"params": None}, "params"),
    ("vertex_expander", {"reduce_t": 1.0}, "reduce_t"),
    ("hyperbolic_expander", {"tolerances": {"monotonicity": 1e-8}}, "monotonicity"),
    ("flat_torus", {"oracle_check": "false"}, "oracle_check"),
    ("flat_torus", {"oracle_check": 0}, "oracle_check"),
    ("hyperbolic_expander", {"expect_constant_entropy": "true"}, "expect_constant_entropy"),
    # a JSON null for each params key a check reads on the model
    ("hyperbolic_expander", {"sigmas": None}, "sigmas"),
    ("hyperbolic_expander", {"radii": None}, "radii"),
    ("hyperbolic_expander", {"dt_cap": None}, "dt_cap"),
    ("hyperbolic_expander", {"retain_every": None}, "retain_every"),
    ("hyperbolic_expander", {"birth_time": None}, "birth_time"),
    ("hyperbolic_expander", {"n_times": None}, "n_times"),
    ("hyperbolic_expander", {"alpha": None}, "alpha"),
    ("hyperbolic_expander", {"expect_constant_entropy": None}, "expect_constant_entropy"),
    ("flat_torus", {"target_grid": None}, "target_grid"),
    ("flat_torus", {"window_lo": None}, "window"),
    ("flat_torus", {"window_hi": None}, "window"),
    ("flat_torus", {"oracle_check": None}, "oracle_check"),
    ("flat_torus", {"reduced_t": None}, "reduced_t"),
    ("flat_torus", {"dt_cap": None}, "dt_cap"),
    ("flat_torus", {"retain_every": None}, "retain_every"),
    ("flat_torus", {"sigmas": None}, "sigmas"),
    ("flat_torus", {"n_times": None}, "n_times"),
    ("flat_torus", {"alpha": None}, "alpha"),
    ("flat_torus", {"birth_time": None}, "birth_time"),
    ("flat_torus", {"expect_constant_entropy": None}, "expect_constant_entropy"),
    # more entropy times than any run could evaluate
    ("hyperbolic_expander", {"n_times": 10**6 + 1}, "n_times"),
    ("hyperbolic_expander", {"n_times": 10**400}, "n_times"),
    # a bad value for a key that no selected check, or no check on the model, reads
    ("hyperbolic_expander", {"target_grid": "x"}, "target_grid"),
    ("hyperbolic_expander", {"window_lo": "x"}, "window_lo"),
    ("nil_flow", {"sigmas": "x"}, "sigmas"),
    ("nil_flow", {"radii": None}, "radii"),
    ("vertex_expander", {"sigmas": [-1]}, "sigmas"),
    # more torus evolve steps than the budget: 3 * 10**7 of a given cap, 2 * 10**6 of h^2/2
    ("flat_torus", {"dt_cap": 1e-7}, "10**6 steps"),
    ("flat_torus", {"params": {}, "t_span": [0, 1000]}, "10**6 steps"),
    # a torus target subgrid that divides the grid but is too small to be a metric
    ("flat_torus", {"target_grid": 4}, "target_grid 4 must be at least 8"),
])
def test_malformed_params_exit_2_without_output(tmp_path, capsys, scenario, params, word):
    doc = json.loads(builtin_scenarios()[scenario].read_text())
    params = dict(params)  # these keys replace the document's, "model" updates its model
    replaced = {k: params.pop(k) for k in ("tolerances", "t_span", "checks", "params")
                if k in params}
    doc["model"].update(params.pop("model", {}))
    doc["params"].update(params)
    doc.update(replaced)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert word in capsys.readouterr().err
    assert not out.exists()


class _Stop(Exception):
    pass


def test_the_density_marches_at_the_scenario_dt_cap(tmp_path, monkeypatch):
    from expanderlab import cli, conjugate_heat

    real_density, real_cg = cli.construct_immortal_density, conjugate_heat.conjugate_gradient
    caps, steps = [], []

    def density(h, window, **kwargs):  # record the cap, build the density, stop the run
        caps.append(kwargs["dt_cap"])
        real_density(h, window, **kwargs)
        raise _Stop

    def cg(*args, **kwargs):  # one call per backward Crank-Nicolson step
        steps.append(1)
        return real_cg(*args, **kwargs)

    monkeypatch.setattr(cli, "construct_immortal_density", density)
    monkeypatch.setattr(conjugate_heat, "conjugate_gradient", cg)
    with pytest.raises(_Stop):
        main(["run", str(builtin_scenarios()["flat_torus"]), "--out", str(tmp_path / "a")])
    # 124 steps at dt_cap 0.05; at the evolve's default h^2/2 it took 9,857
    assert caps == [0.05] and len(steps) <= 200
    # a torus config without the key leaves both directions at their default
    doc = json.loads(builtin_scenarios()["torus_flow"].read_text())
    doc["model"]["grid_size"] = [16, 16]
    assert "dt_cap" not in doc["params"]
    with pytest.raises(_Stop):
        main(["run", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "b")])
    assert caps == [0.05, None]
    assert not any(tmp_path.glob("[ab]/*"))


def test_packaged_shrinking_sphere_runs_before_extinction(tmp_path):
    # its reduced field times (0.08-0.12) lie before the extinction at
    # t = 0.25, inside a t_span [0, 1] that runs past it
    out = tmp_path / "out"
    assert main(["run", str(builtin_scenarios()["shrinking_sphere"]), "--out", str(out)]) == 0
    report = json.loads((out / "shrinking_sphere" / "report.json").read_text())
    assert report["failures"] == [] and report["fitted"]["extinct_at"] == 0.25


def test_mu_concavity_is_in_sigma(tmp_path, monkeypatch):
    # mu_+ of the shrinking sphere at t = 0.135 on the uneven default sigmas
    # (0.25 .. 2) has positive second differences in the sample index but
    # falling slopes 17.2, 15.1, 14.1 in sigma: concave, so the run passes
    doc = json.loads(builtin_scenarios()["shrinking_sphere"].read_text())
    doc["t_span"], doc["checks"] = [0, 0.27], ["mu_nu"]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    tree = out / "shrinking_sphere"
    assert sorted(p.relative_to(tree).as_posix() for p in tree.rglob("*") if p.is_file()) == [
        "report.json", "series/flow.csv", "series/mu_plus.csv"]
    report = json.loads((tree / "report.json").read_text())
    assert report["verdicts"]["mu.concave_on_samples"] is True and report["failures"] == []
    # a convex mu_+ = sigma^2 still fails the verdict
    monkeypatch.setattr("expanderlab.cli.mu_plus",
                        lambda m, s: types.SimpleNamespace(value=s * s, converged=True))
    out = tmp_path / "convex"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    report = json.loads((out / "shrinking_sphere" / "report.json").read_text())
    assert report["verdicts"]["mu.concave_on_samples"] is False
    assert report["failures"] == ["mu.concave_on_samples"]


def test_default_reduced_field_times_outside_t_span_exit_2(tmp_path, capsys):
    # without reduced_t the torus field times sit at 0.7-0.8 of t1, before t0
    # here; the run used to fail on a history lookup and leave a partial tree
    doc = json.loads(builtin_scenarios()["flat_torus"].read_text())
    doc["t_span"], doc["checks"] = [2.9, 3.0], ["reduced"]
    del doc["params"]["reduced_t"]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "reduced_t 'default'" in capsys.readouterr().err
    assert not out.exists()


def test_svg_titles_are_escaped(tmp_path, hyperbolic_doc):
    doc = dict(hyperbolic_doc, name="a<b&c")
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    plots = sorted((out / "a<b&c" / "plots").glob("*.svg"))
    assert plots
    for svg in plots:
        root = ElementTree.parse(svg).getroot()
        titles = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert any(t and t.startswith("a<b&c: ") for t in titles)


def test_non_finite_numpy_floats_are_written_as_strings(tmp_path):
    # json.dump writes a bare NaN or Infinity, which is not JSON; numpy
    # floats take the same string rule as Python floats
    path = tmp_path / "report.json"
    write_json(path, {"nan": np.float64("nan"), "inf": np.float64("inf"),
                      "neg": [np.float64("-inf")], "f32": np.float32("nan"),
                      "finite": np.float64(0.5)})

    def no_constants(name):
        raise ValueError(f"invalid JSON constant {name}")

    doc = json.loads(path.read_text(), parse_constant=no_constants)
    assert doc == {"nan": "nan", "inf": "inf", "neg": ["-inf"], "f32": "nan", "finite": 0.5}


@pytest.mark.parametrize("name", [
    ".", "..", "a/b", "/abs", "../up",
    pytest.param("a\x00b", id="nul"),
    # the sibling <out>/.<name>.XXXXXXXX must fit NAME_MAX, 255 bytes
    pytest.param("x" * 246, id="246_bytes"),
    pytest.param("\u00e9" * 123, id="246_utf8_bytes"),
])
def test_a_path_as_scenario_name_exits_2(tmp_path, capsys, hyperbolic_doc, name):
    # a run replaces <out>/<name> whole, so the name must not reach outside <out>
    cfg = write_config(tmp_path, dict(hyperbolic_doc, name=name))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "must be a file name" in capsys.readouterr().err
    assert not out.exists()


def test_a_245_byte_scenario_name_runs(tmp_path, hyperbolic_doc):
    name = "x" * 245
    cfg = write_config(tmp_path, dict(hyperbolic_doc, name=name, checks=["blowdown"]))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == [name]


def test_duplicate_names_rejected(tmp_path, hyperbolic_doc):
    cfg = write_config(tmp_path, {"scenarios": [hyperbolic_doc, hyperbolic_doc]})
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2


def test_scenario_validation_messages():
    with pytest.raises(ConfigError, match="schema"):
        Scenario.from_doc({"name": "x"})
    with pytest.raises(ConfigError, match="t_span"):
        Scenario.from_doc({
            "schema": 1, "name": "x",
            "model": {"kind": "model_space", "dim": 3, "sectional_sign": -1,
                      "scale": 1.0},
            "t_span": [2.0, 1.0], "checks": ["entropy"],
        })
    with pytest.raises(ConfigError, match="t_span"):
        Scenario.from_doc({
            "schema": 1, "name": "x",
            "model": {"kind": "model_space", "dim": 3, "sectional_sign": -1,
                      "scale": 1.0},
            "t_span": ["a", "b"], "checks": ["entropy"],
        })
    with pytest.raises(ConfigError, match="unknown checks"):
        Scenario.from_doc({
            "schema": 1, "name": "x",
            "model": {"kind": "model_space", "dim": 3, "sectional_sign": -1,
                      "scale": 1.0},
            "t_span": [0.0, 1.0], "checks": ["bogus"],
        })


_PACKAGED = {name: json.loads(entry.read_text()) for name, entry in builtin_scenarios().items()}
# Configs are mutated key by key, model specs excepted: a mutated grid size
# could ask for an array larger than memory before the spec is rejected.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**3, 10**3) | st.floats() | st.just(10**400)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=5), max_leaves=8)
MUTATIONS = st.one_of(
    st.tuples(st.just("params"), st.sampled_from([*PARAMS, "reduce_t"]), JSON_VALUES),
    st.tuples(st.just("tolerances"), st.sampled_from([*TOLERANCES, "monotonicity"]),
              JSON_VALUES),
    st.tuples(st.just("t_span"), st.just(None),
              st.lists(st.floats(-1.0, 1e3) | st.integers(-1, 1000), min_size=2, max_size=2)
              | JSON_VALUES),
    st.tuples(st.just("checks"), st.just(None),
              st.lists(st.sampled_from(KNOWN_CHECKS), min_size=1, max_size=4, unique=True)
              | JSON_VALUES),
    st.tuples(st.just("name"), st.just(None), st.text(max_size=6) | JSON_VALUES),
)


@given(st.sampled_from(sorted(builtin_scenarios())), st.lists(MUTATIONS, min_size=1, max_size=4),
       st.lists(st.booleans(), min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
# a t_span whose t0 + t1 overflows: the default reduced_t is still finite
@example("nil_flow", [("t_span", None, [1e308, 1.7e308])], [False] * 4)
def test_mutated_configs_are_rejected_or_fully_resolved(scenario, mutations, deletes):
    # from_doc raises ConfigError, or resolves every params and tolerances key,
    # leaving no derived placeholder for the runner to work out again
    doc = copy.deepcopy(_PACKAGED[scenario])
    for (section, key, value), delete in zip(mutations, deletes):
        if key is None:
            doc[section] = value
        elif delete:
            doc.setdefault(section, {}).pop(key, None)
        else:
            doc.setdefault(section, {})[key] = value
    try:
        scn = Scenario.from_doc(doc)
    except ConfigError:
        return
    assert set(scn.params) == set(PARAMS) and set(scn.tolerances) == set(TOLERANCES)
    assert all(v is not DERIVED for v in [*scn.params.values(), *scn.tolerances.values()])
    # every resolved value meets its rule; evolve works out a None dt_cap and retain_every
    assert all(PARAMS[k][1](v) for k, v in scn.params.items()
               if (k, v) not in (("dt_cap", None), ("retain_every", None)))
    assert all(isinstance(v, float) for v in scn.tolerances.values())


def test_readme_table_names_every_scenario_key():
    # the README's "Scenario keys" table lists each params and tolerances key once
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Scenario keys", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \|", section, re.M)
    assert sorted(k for sec, k in rows if sec == "params") == sorted(PARAMS)
    assert sorted(k for sec, k in rows if sec == "tolerances") == sorted(TOLERANCES)
    assert len(rows) == len(PARAMS) + len(TOLERANCES)

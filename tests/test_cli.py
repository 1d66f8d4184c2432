"""Config validation, task execution, exit codes, report determinism."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from fermicert import cli, fock, gap
from fermicert.errors import AmbiguousKernelError, CertificationError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _load(name):
    with open(CONFIG_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def test_validate_empty_config_lists_missing_fields():
    diags = cli.validate({})
    assert any("task" in d for d in diags)
    assert any("lattice" in d for d in diags)


def test_validate_shipped_configs_clean():
    for path in sorted(CONFIG_DIR.glob("*.json")):
        config = _load(path.name)
        assert cli.validate(config) == [], path.name


def test_validate_site_cap():
    config = _load("lr_chain.json")
    config["lattice"]["lengths"] = [20]
    diags = cli.validate(config)
    assert any("cap" in d for d in diags)


def test_validate_bad_task_and_model():
    config = _load("lr_chain.json")
    config["task"] = "fly-to-the-moon"
    assert any("task" in d for d in cli.validate(config))
    config = _load("gap_kitaev.json")
    config["model"]["name"] = "nonsense"
    assert any("model.name" in d for d in cli.validate(config))


def test_run_lr_certify_writes_reports(tmp_path):
    config = _load("lr_chain.json")
    config["time"]["points"] = 9
    assert cli.run(config, tmp_path) == 0
    table = (tmp_path / "lr_chain_table.csv").read_text().splitlines()
    assert table[0] == "t,measured,bound,ratio,mode"
    assert len(table) == 10
    report = json.loads((tmp_path / "lr_chain_report.json").read_text())
    assert report["certified"] is True
    assert len(report["result"]["times"]) == 9
    assert (tmp_path / "lr_chain_plot.csv").exists()


def test_run_gap_certify_flat_band(tmp_path):
    config = _load("gap_flatband.json")
    config["lattice"]["lengths"] = [6]
    assert cli.run(config, tmp_path) == 0
    report = json.loads((tmp_path / "gap_flatband_report.json").read_text())
    cert = report["certificate"]
    assert report["frustration_free"] is True
    assert cert["exact_gap"] == pytest.approx(1.0, abs=1e-9)
    assert cert["bound"] <= cert["exact_gap"] + 1e-8
    rows = (tmp_path / "gap_flatband_table.csv").read_text().splitlines()
    assert rows[0] == "n,gamma_n,eps_sq_n,commutator_defect_n"
    assert len(rows) == 1 + 6  # one row per sequence step


def test_run_malformed_config_exits_one(tmp_path, capsys):
    assert cli.run({"task": "lr-certify"}, tmp_path) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "invalid-config"
    assert err["diagnostics"]


def _set(config, path, value):
    *parents, key = path
    for name in parents:
        config = config[name]
    config[key] = value


@pytest.mark.parametrize("path, value, field", [
    (("time", "start"), "zero", "time.start"),
    (("time", "stop"), "two", "time.stop"),
    (("time", "points"), "ten", "time.points"),
    (("time", "stop"), True, "time.stop"),
    (("model", "params", "J"), "strong", "model.params.J"),
    (("model", "params"), [1.0, 0.0], "model.params"),
    (("seed",), True, "seed"),
])
def test_run_wrong_typed_field_is_config_error(tmp_path, capsys, path, value, field):
    config = _load("lr_chain.json")
    _set(config, path, value)
    assert any(d.startswith(field + ":") for d in cli.validate(config))
    assert cli.run(config, tmp_path) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "invalid-config"
    assert any(d.startswith(field + ":") for d in err["diagnostics"])


@pytest.mark.parametrize("key, value, field", [
    ("ramp", "yes", "model.ramp"),
    ("kind", "cubic", "model.ramp.kind"),
    ("slope", "fast", "model.ramp.slope"),
    ("offset", None, "model.ramp.offset"),
    ("amplitude", [0.5], "model.ramp.amplitude"),
    ("frequency", True, "model.ramp.frequency"),
    ("interval", [2.0, 0.0], "model.ramp.interval"),
    ("interval", [0.0, "two"], "model.ramp.interval"),
    ("interval", [0.0], "model.ramp.interval"),
])
def test_run_bad_ramp_is_config_error(tmp_path, capsys, key, value, field):
    config = _load("lr_ramped.json")
    if key == "ramp":
        config["model"]["ramp"] = value
    else:
        config["model"]["ramp"][key] = value
    assert cli.run(config, tmp_path) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "invalid-config"
    assert any(d.startswith(field + ":") for d in err["diagnostics"])


def test_overrides_on_non_object_config_are_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[1, 2]")
    rc = cli.main(["--config", str(cfg_path), "--out", str(tmp_path),
                   "--seed", "2", "--tol", "1e-3", "--grid", "3"])
    assert rc == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "invalid-config"
    assert err["diagnostics"] == ["config: must be a JSON object"]


def test_run_condexp_check(tmp_path):
    config = _load("condexp_chain.json")
    config["samples"] = 3
    assert cli.run(config, tmp_path) == 0
    report = json.loads((tmp_path / "condexp_chain_report.json").read_text())
    assert max(report["defects"].values()) <= 1e-12


def test_run_flow_closure_exits_two(tmp_path, capsys):
    config = _load("flow_rotation.json")
    config["lattice"]["lengths"] = [4]
    config["flow"] = {"kind": "closing", "points": 9, "gamma_min": 0.2}
    assert cli.run(config, tmp_path) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "gap-closure"
    assert out["location"] == pytest.approx(0.4, abs=0.02)


def test_run_flow_defect_target_missed_exits_two(tmp_path, capsys):
    # the 512-substep cap stops refinement above a target of 1e-15
    config = _load("flow_rotation.json")
    config["lattice"]["lengths"] = [2]
    config["flow"].update(points=3, defect_target=1e-15)
    assert cli.run(config, tmp_path) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "defect-target-missed"
    report = json.loads((tmp_path / "flow_rotation_report.json").read_text())
    assert report["certified"] is False
    assert report["error"] == out
    assert report["substeps"] == 512
    assert report["max_defect"] > 1e-15
    rows = (tmp_path / "flow_rotation_table.csv").read_text().splitlines()
    assert rows[0] == "s,gap,defect" and len(rows) == 4

    config["flow"]["defect_target"] = 1e-6
    assert cli.run(config, tmp_path) == 0
    report = json.loads((tmp_path / "flow_rotation_report.json").read_text())
    assert report["certified"] is True and "error" not in report
    assert report["max_defect"] <= 1e-6


def test_main_cli_roundtrip(tmp_path, capsys):
    config = _load("model_info_flatband.json")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    rc = cli.main(["--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "model_info_flatband_report.json").read_text())
    assert report["model"]["n_sites"] == 6
    assert report["model"]["frustration_free"] is True
    rc = cli.main(["--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)])
    assert rc == 1


def test_grid_override_leaves_other_tasks_without_flow(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_load("lr_chain.json")))
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "--grid", "3"]) == 0
    report = json.loads((tmp_path / "lr_chain_report.json").read_text())
    assert "flow" not in report["config"]
    assert report["config"]["time"]["points"] == 3


def _assert_config_error(config, tmp_path, capsys, field):
    assert cli.run(config, tmp_path) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "invalid-config"
    assert any(d.startswith(field + ":") for d in err["diagnostics"])


def test_run_bad_observable_site_is_config_error(tmp_path, capsys):
    config = _load("lr_chain.json")
    config["observables"]["B"]["site"] = 99
    _assert_config_error(config, tmp_path, capsys, "observables.B.site")


@pytest.mark.parametrize("name, path, value, field", [
    ("condexp_chain.json", ("region_y",), [2, 9], "region_y"),   # a site outside the lattice
    ("lr_chain.json", ("observables", "A"), {"kind": "monomial", "label": ["a*a", "1"]},
     "observables.A.label"),                                     # one symbol per site
    ("lr_chain.json", ("observables", "A"), {"kind": "monomial", "label": ["zz"] + ["1"] * 7},
     "observables.A.label"),
    ("gap_flatband.json", ("lattice", "lengths"), [5], "lattice.lengths"),   # odd flat band
    ("lr_ramped.json", ("time", "stop"), 3.0, "time.stop"),     # beyond the ramp interval
    ("lr_chain.json", ("time", "stop"), 1e308, "time.stop"),    # beyond MAGNITUDE_CAP
    ("lr_ramped.json", ("model", "ramp", "slope"), -1e7, "model.ramp.slope"),
    # beyond condexp-check's 8 sites, and overlap-model terms that span the
    # chain beyond the 8 sites that the term cache expands over
    ("condexp_chain.json", ("lattice", "lengths"), [9], "lattice.lengths"),
    ("gap_overlap.json", ("lattice", "lengths"), [9], "lattice.lengths"),
])
def test_semantic_rules_are_field_diagnostics(tmp_path, capsys, name, path, value, field):
    # each passed the schema before and failed only inside a runner, unnamed
    config = _load(name)
    _set(config, path, value)
    assert any(d.startswith(field + ":") for d in cli.validate(config))
    _assert_config_error(config, tmp_path, capsys, field)


def test_flow_check_above_eight_sites_is_a_config_error(tmp_path, capsys):
    # 5 s and 104 MB at 8 sites, mostly the 1,281 eigh of H(s)'s blocks and
    # one interval's dense projections; at 10 sites an estimated 1,281 eigh
    # of 512 x 512 blocks and about 1 GB of projections: refused before
    # anything is built or written
    config = _load("flow_rotation.json")
    config["lattice"]["lengths"] = [10]
    _assert_config_error(config, tmp_path, capsys, "lattice.lengths")
    assert list(tmp_path.iterdir()) == []
    config["lattice"]["lengths"] = [8]
    assert cli.validate(config) == []


def test_condexp_check_above_its_site_cap_is_a_config_error():
    # embed has no site limit; the volume check embeds into L + 2 sites
    config = _load("condexp_chain.json")
    config["lattice"]["lengths"] = [cli.CONDEXP_SITE_CAP + 1]
    assert cli.validate(config) == [
        f"lattice.lengths: condexp-check needs at most {cli.CONDEXP_SITE_CAP} sites, got 9"]
    config["lattice"]["lengths"] = [cli.CONDEXP_SITE_CAP]
    assert cli.validate(config) == []


def test_random_even_terms_beyond_the_expansion_cap_are_config_errors(tmp_path, capsys):
    # seed 7 draws a term on all 10 sites, which the term cache cannot expand
    config = _load("lr_chain.json")
    config["lattice"]["lengths"] = [10]
    config["model"] = {"name": "random_even", "params": {"max_range": 9}}
    _assert_config_error(config, tmp_path, capsys, "model.params.max_range")
    config["model"]["params"]["max_range"] = fock.EXPANSION_CAP - 1
    assert cli.validate(config) == []
    # on 8 sites no term is wider than the lattice
    config["lattice"]["lengths"] = [8]
    config["model"]["params"]["max_range"] = 9
    assert cli.validate(config) == []


def test_numerical_failure_is_not_a_config_error(tmp_path, capsys, monkeypatch):
    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(cli, "certify", diverge)
    assert cli.run(_load("lr_chain.json"), tmp_path) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "numerical-failure"


@pytest.mark.parametrize("desc, field", [
    (3, "observables.A"),
    ({"kind": "spin", "site": 0}, "observables.A"),
    ({"site": 0}, "observables.A"),
    ({"kind": "number"}, "observables.A.site"),
    ({"kind": "creator", "site": {"x": 1}}, "observables.A.site"),
    ({"kind": "annihilator", "site": [0, "a"]}, "observables.A.site"),
    ({"kind": "monomial", "site": 0}, "observables.A.label"),
    ({"kind": "monomial", "label": 5}, "observables.A.label"),
])
def test_run_bad_observable_is_config_error(tmp_path, capsys, desc, field):
    config = _load("lr_chain.json")
    config["observables"]["A"] = desc
    _assert_config_error(config, tmp_path, capsys, field)


@pytest.mark.parametrize("key, value", [
    ("region_x", [{"a": 1}]),
    ("region_x", [0, [1, "b"]]),
    ("region_y", [1.5]),
    ("region_y", "0 1"),
])
def test_run_bad_region_is_config_error(tmp_path, capsys, key, value):
    config = _load("condexp_chain.json")
    config[key] = value
    _assert_config_error(config, tmp_path, capsys, key)


@pytest.mark.parametrize("samples", [0, -3, 2.5, True, "3"])
def test_run_condexp_needs_positive_integer_samples(tmp_path, capsys, samples):
    # with no sample every sampled defect is 0.0 and the check would pass vacuously
    config = _load("condexp_chain.json")
    config["samples"] = samples
    _assert_config_error(config, tmp_path, capsys, "samples")


@pytest.mark.parametrize("name, path, value, field", [
    ("lr_chain.json", ("time", "points"), 1.5, "time.points"),
    ("lr_chain.json", ("time", "points"), 0, "time.points"),
    ("flow_rotation.json", ("flow", "points"), 2.5, "flow.points"),
    ("flow_rotation.json", ("flow", "points"), 1, "flow.points"),
])
def test_run_fractional_grid_points_are_config_error(tmp_path, capsys, name, path, value,
                                                      field):
    config = _load(name)
    _set(config, path, value)
    _assert_config_error(config, tmp_path, capsys, field)


def test_run_monomial_observable(tmp_path):
    config = _load("lr_chain.json")
    config["lattice"]["lengths"] = [6]
    config["time"]["points"] = 5
    # a*a at the first site against a*a at the last, written as monomials
    config["observables"] = {
        "A": {"kind": "monomial", "label": ["a*a", "1", "1", "1", "1", "1"]},
        "B": {"kind": "monomial", "label": ["1", "1", "1", "1", "1", "a*a"]},
    }
    assert cli.run(config, tmp_path) == 0


def test_reports_deterministic_modulo_timestamp(tmp_path):
    config = _load("gap_kitaev.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.run(config, out1) == 0
    assert cli.run(config, out2) == 0

    def strip_ts(path):
        return "\n".join(l for l in path.read_text().splitlines()
                         if '"timestamp"' not in l)

    assert strip_ts(out1 / "gap_kitaev_report.json") == strip_ts(out2 / "gap_kitaev_report.json")
    assert (out1 / "gap_kitaev_table.csv").read_bytes() == (out2 / "gap_kitaev_table.csv").read_bytes()
    assert (out1 / "gap_kitaev_plot.csv").read_bytes() == (out2 / "gap_kitaev_plot.csv").read_bytes()


def test_seed_override_changes_random_model(tmp_path):
    config = {
        "task": "model-info",
        "lattice": {"dimension": 1, "lengths": [4], "boundary": "open"},
        "model": {"name": "random_even", "params": {"max_range": 1, "strength": 0.5}},
        "seed": 1,
        "output_prefix": "rand",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "s1")]) == 0
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "s2"),
                     "--seed", "2"]) == 0
    r1 = json.loads((tmp_path / "s1" / "rand_report.json").read_text())
    r2 = json.loads((tmp_path / "s2" / "rand_report.json").read_text())
    assert r1["model"]["terms"] != r2["model"]["terms"]


@pytest.mark.parametrize("prefix", ["a/b", ["x"], "../x"])
def test_output_prefix_must_be_a_plain_file_name(tmp_path, capsys, prefix):
    config = _load("model_info_flatband.json")
    config["output_prefix"] = prefix
    _assert_config_error(config, tmp_path / "out", capsys, "output_prefix")
    assert list(tmp_path.rglob("*_report.json")) == []


def _random_model_info(**params):
    return {"task": "model-info", "lattice": {"lengths": [4]},
            "model": {"name": "random_even", "params": dict(max_range=1, **params)}}


@pytest.mark.parametrize("key, value", [("n_terms", 2.5), ("max_range", 1.5)])
def test_random_even_integer_params(tmp_path, capsys, key, value):
    config = _random_model_info()
    config["model"]["params"][key] = value
    _assert_config_error(config, tmp_path, capsys, f"model.params.{key}")


def test_random_even_null_n_terms_is_one_term_per_site(tmp_path):
    assert cli.run(_random_model_info(n_terms=None), tmp_path) == 0
    report = json.loads((tmp_path / "model_info_report.json").read_text())
    assert report["model"]["n_terms"] == 4


@pytest.mark.parametrize("config, path, value, field", [
    (_load("lr_chain.json"), ("time", "points"), 10**12, "time.points"),
    (_load("flow_rotation.json"), ("flow", "points"), 10**12, "flow.points"),
    (_load("condexp_chain.json"), ("samples",), 10**12, "samples"),
    (_random_model_info(), ("model", "params", "n_terms"), 10**12, "model.params.n_terms"),
    (_load("lr_ramped.json"), ("step",), 1e-12, "step"),   # 2e12 midpoint steps
])
def test_oversized_counts_are_config_errors(tmp_path, capsys, config, path, value, field):
    _set(config, path, value)
    # validate() first: a runner given such a count would allocate or loop without end
    assert any(d.startswith(field + ":") for d in cli.validate(config))
    _assert_config_error(config, tmp_path, capsys, field)


def test_count_cap_is_inclusive():
    config = _load("lr_chain.json")
    config["time"]["points"] = cli.COUNT_CAP
    assert cli.validate(config) == []
    config["time"]["points"] = cli.COUNT_CAP + 1
    assert cli.validate(config) == [
        f"time.points: need an integer in [1, {cli.COUNT_CAP}], got {cli.COUNT_CAP + 1}"]


@pytest.mark.parametrize("name", ["lr_chain.json", "flow_rotation.json"])
def test_grid_override_is_bounded(tmp_path, monkeypatch, name):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_load(name)))
    passed = []
    monkeypatch.setattr(cli, "run", lambda config, out_dir: passed.append(config) or 1)
    assert cli.main(["--config", str(cfg_path), "--grid", str(10**12)]) == 1
    field = "flow.points" if name == "flow_rotation.json" else "time.points"
    assert any(d.startswith(field + ":") for d in cli.validate(passed[0]))


def test_tol_override_only_reaches_condexp_check(tmp_path):
    info_path, condexp_path = tmp_path / "info.json", tmp_path / "condexp.json"
    info_path.write_text(json.dumps(_load("model_info_flatband.json")))
    condexp = _load("condexp_chain.json")
    condexp["samples"] = 2
    condexp_path.write_text(json.dumps(condexp))
    for path in (info_path, condexp_path):
        assert cli.main(["--config", str(path), "--out", str(tmp_path), "--tol", "1e-3"]) == 0
    report = json.loads((tmp_path / "model_info_flatband_report.json").read_text())
    assert "tol" not in report["config"]
    report = json.loads((tmp_path / "condexp_chain_report.json").read_text())
    assert report["config"]["tol"] == report["tolerance"] == 1e-3


def test_negative_tol_is_config_error(tmp_path, capsys):
    config = _load("condexp_chain.json")
    config["tol"] = -1
    assert cli.validate(config) == ["tol: need a finite number >= 0, got -1"]
    _assert_config_error(config, tmp_path, capsys, "tol")


def test_negative_tol_override_is_config_error(tmp_path, capsys):
    path = tmp_path / "condexp.json"
    path.write_text(json.dumps(_load("condexp_chain.json")))
    assert cli.main(["--config", str(path), "--out", str(tmp_path), "--tol", "-1"]) == 1
    err = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert err["error"] == "invalid-config"
    assert err["diagnostics"] == ["tol: need a finite number >= 0, got -1.0"]


def test_flow_check_only_transports_the_flat_band_family(tmp_path, capsys):
    config = _load("flow_rotation.json")
    config["lattice"]["lengths"] = [4]
    config["flow"]["points"] = 3
    config["model"] = {"name": "kitaev_chain"}
    _assert_config_error(config, tmp_path, capsys, "model")


@pytest.mark.parametrize("name", ["gap_kitaev.json", "flow_rotation.json"])
def test_a_ramp_on_a_static_task_is_config_error(tmp_path, capsys, name):
    # gap-certify needs a static sequence and flow-check would ignore the ramp
    config = _load(name)
    config["lattice"]["lengths"] = [4]
    config["model"]["ramp"] = {"kind": "linear", "slope": 0.5}
    _assert_config_error(config, tmp_path, capsys, "model.ramp")


@pytest.mark.parametrize("path, value, field", [
    (("model", "params"), {"angel": 0.9}, "model.params.angel"),
    (("lattice", "dimension"), "two", "lattice.dimension"),
    (("site_cap",), 20, "site_cap"),
    (("flow",), {"points": 3}, "flow"),
])
def test_unknown_or_wrong_typed_keys_are_config_errors(tmp_path, capsys, path, value, field):
    config = _load("model_info_flatband.json")
    _set(config, path, value)
    _assert_config_error(config, tmp_path, capsys, field)


def test_cli_does_not_import_scipy_sparse():
    # no scipy module at all, after the import and a 4-site ramped certify
    import os
    import subprocess
    import sys
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import fermicert.cli\n"
        "from fermicert import fock, geometry, lr_bounds, models\n"
        "from fermicert.dynamics import scaled_profile\n"
        "lam = fock.chain(4)\n"
        "phi = scaled_profile(models.hopping_chain(4), lambda r: 1 + r, (0.0, 1.0))\n"
        "G = geometry.g_from_f(geometry.DecayFunction(1, 1.0), geometry.chain_graph(4))\n"
        "lr_bounds.certify(fock.number_operator(lam, [0]), fock.number_operator(lam, [3]),\n"
        "                  phi, G, 0.0, np.linspace(0.0, 1.0, 3))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert out.stdout.strip() == "[]"


def _raises(error):
    def fail(*args, **kwargs):
        raise error
    return fail


_CLOSING = {**_load("flow_rotation.json"), "lattice": {"lengths": [4]},
            "flow": {"kind": "closing", "points": 9, "gamma_min": 0.2}}


@pytest.mark.parametrize("text, patch, code, error, written", [
    # condexp_chain's worst defect is about 5e-17, above a tolerance of 0
    (json.dumps({**_load("condexp_chain.json"), "tol": 0.0}), None,
     2, "defect-exceeds-tolerance", "condexp_chain"),
    (json.dumps(_CLOSING), None, 2, "gap-closure", "flow_rotation"),
    (json.dumps(_load("lr_chain.json")),
     (cli, "certify", CertificationError("bound exceeded", 0.5, 1.0, 0.1)),
     2, "certification-failed", None),
    (json.dumps(_load("gap_kitaev.json")),
     (gap, "martingale_certificate", AmbiguousKernelError("kernel unclear", [1e-9], 1e-8)),
     2, "spectral-analysis-failed", None),
    (json.dumps(_load("lr_chain.json")),
     (cli, "certify", np.linalg.LinAlgError("SVD did not converge")),
     2, "numerical-failure", None),
    (json.dumps(_load("gap_kitaev.json")),
     (gap, "martingale_certificate", ValueError("sequence is not increasing")),
     1, "invalid-config", None),
    (None, None, 1, "unreadable-config", None),   # no config file
    ("{", None, 1, "unreadable-config", None),    # not JSON
], ids=["defect-exceeds-tolerance", "gap-closure", "certification-failed",
        "spectral-analysis-failed", "numerical-failure", "invalid-config",
        "missing-config", "malformed-config"])
def test_each_task_outcome_sets_exit_code_error_and_files(tmp_path, capsys, monkeypatch,
                                                          text, patch, code, error, written):
    """``written``: the prefix of the three files the run writes, or None."""
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    if text is not None:
        path.write_text(text)
    if patch is not None:
        module, name, raised = patch
        monkeypatch.setattr(module, name, _raises(raised))
    assert cli.main(["--config", str(path), "--out", str(out)]) == code
    assert json.loads(capsys.readouterr().out)["error"] == error
    files = {f"{written}_{kind}" for kind in ("report.json", "table.csv", "plot.csv")}
    assert {p.name for p in out.glob("*")} == (files if written else set())


@pytest.mark.parametrize("blocked", ["out-dir", "report"])
def test_an_unwritable_output_is_one_json_error(tmp_path, capsys, blocked):
    # --out naming an existing file, or a directory in the place of the
    # report, ends in one JSON error object with exit code 1, not a traceback
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps(_load("model_info_flatband.json")))
    if blocked == "out-dir":
        out.write_text("")
    else:
        (out / "model_info_flatband_report.json").mkdir(parents=True)
    assert cli.main(["--config", str(path), "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().out)
    assert error["error"] == "unwritable-output"
    assert error["message"].startswith(("FileExistsError", "IsADirectoryError"))


@pytest.mark.parametrize("name", ["lr_chain.json", "model_info_flatband.json"])
def test_the_plot_holds_the_first_three_columns_of_the_table(tmp_path, name):
    # lr-certify plots t, measured and bound of its five columns; model-info
    # plots its whole three-column table
    config = _load(name)
    if "time" in config:
        config["time"]["points"] = 3
    assert cli.run(config, tmp_path) == 0
    table, plot = (list(csv.reader((tmp_path / f"{config['output_prefix']}_{kind}.csv")
                                   .read_text().splitlines()))
                   for kind in ("table", "plot"))
    assert plot == [row[:3] for row in table]

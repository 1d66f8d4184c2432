"""Config validation, task execution, exit codes, report determinism."""

import json
from pathlib import Path

import pytest

from fermicert import cli

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


def test_run_bad_observable_site_is_config_error(tmp_path, capsys):
    config = _load("lr_chain.json")
    config["observables"]["B"]["site"] = 99
    assert cli.run(config, tmp_path) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "invalid-config"


def _assert_config_error(config, tmp_path, capsys, field):
    assert cli.run(config, tmp_path) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "invalid-config"
    assert any(d.startswith(field + ":") for d in err["diagnostics"])


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

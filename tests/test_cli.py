"""End-to-end command-line behavior: artifacts, exit codes, reproducibility."""

import json
import os

import numpy as np
import pytest

from frkan.cli import main
from frkan.knots import build_sawtooth_network
from frkan.layers import FRKANLayer, KANLayer, MLPLayer, Network, _silu, save_checkpoint
from frkan.splines import make_uniform_grid, spline_eval


def _run(argv):
    return main(argv)


class TestApprox:
    def test_writes_artifacts_and_reruns_identically(self, tmp_path):
        out1 = tmp_path / "run1"
        rc = _run(["approx", "--equation", "I.18.4", "--model", "frkan",
                   "--arch", "4", "--G", "6", "--K", "2", "--n", "80",
                   "--epochs", "2", "--batch", "32", "--seed", "11",
                   "--out", str(out1)])
        assert rc == 0
        for name in ("effective_config.json", "summary.json", "metrics.csv",
                     "checkpoint.json"):
            assert (out1 / name).exists(), name
        summary1 = json.loads((out1 / "summary.json").read_text())
        assert "test_rmse" in summary1

        # criterion: re-run from the emitted effective config reproduces
        # the metrics bit-identically
        out2 = tmp_path / "run2"
        rc = _run(["approx", "--config", str(out1 / "effective_config.json"),
                   "--out", str(out2)])
        assert rc == 0
        summary2 = json.loads((out2 / "summary.json").read_text())
        assert summary1["final_metric"] == summary2["final_metric"]
        assert summary1["config_hash"] == summary2["config_hash"]
        m1 = (out1 / "metrics.csv").read_text()
        m2 = (out2 / "metrics.csv").read_text()
        assert m1 == m2

    def test_missing_equation_is_validation_error(self, tmp_path, capsys):
        rc = _run(["approx", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "equation" in capsys.readouterr().err

    def test_unknown_equation_named(self, tmp_path, capsys):
        rc = _run(["approx", "--equation", "I.30.3", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "I.30.3" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"equation": "I.6.2", "bogus_knob": 3}))
        rc = _run(["approx", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "bogus_knob" in capsys.readouterr().err

    def test_bad_range_flag(self, tmp_path, capsys):
        rc = _run(["approx", "--equation", "I.6.2", "--range", "5,1",
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "range" in capsys.readouterr().err

    def test_writes_only_inside_output_directory(self, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        rc = _run(["approx", "--equation", "I.6.2", "--arch", "2", "--G", "4",
                   "--K", "1", "--n", "40", "--epochs", "1", "--batch", "16",
                   "--out", "only_here"])
        assert rc == 0
        assert sorted(p.name for p in workdir.iterdir()) == ["only_here"]

    def test_dataset_cache_emitted(self, tmp_path):
        out = tmp_path / "r"
        rc = _run(["approx", "--equation", "I.6.2", "--arch", "2", "--G", "4",
                   "--K", "1", "--n", "40", "--epochs", "1", "--batch", "16",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "dataset.csv").exists()
        assert json.loads((out / "dataset_manifest.json").read_text())["id"] == "I.6.2"


class TestTrainCommand:
    def test_runge_task(self, tmp_path):
        out = tmp_path / "runge"
        rc = _run(["train", "--task", "runge", "--model", "frkan", "--arch", "4",
                   "--G", "6", "--K", "2", "--range", "-2,2", "--n", "100",
                   "--epochs", "2", "--batch", "32", "--lambda", "0.001",
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["metric_name"] == "rmse"

    def test_divergence_cause_is_printed_and_saved(self, tmp_path, capsys):
        # an MLP has no spline layer, so G + K < 3 is no error for it
        out = tmp_path / "nan"
        rc = _run(["train", "--task", "runge", "--model", "mlp", "--arch", "4",
                   "--G", "1", "--K", "1", "--n", "40", "--epochs", "5", "--batch", "16",
                   "--lr", "1e300", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["nan_step"] is not None
        assert summary["nan_cause"].startswith("NonFinite")
        assert f"nan_cause={summary['nan_cause']!r}" in capsys.readouterr().out

    def test_classification_task(self, tmp_path):
        out = tmp_path / "cls"
        rc = _run(["train", "--task", "classification", "--model", "mlp",
                   "--arch", "8", "--n", "120", "--classes", "3", "--dim", "4",
                   "--epochs", "2", "--batch", "32", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["metric_name"] == "accuracy"

    @pytest.mark.parametrize("task, arch", [
        (["--task", "feynman", "--equation", "I.6.2"], "in:5 -> mlp:3 -> out:1"),
        (["--task", "feynman", "--equation", "I.6.2"], "in:2 -> mlp:3 -> out:4"),
        (["--task", "classification", "--classes", "3", "--dim", "4"],
         "in:4 -> mlp:3 -> out:2"),
    ])
    def test_descriptor_widths_must_match_the_data(self, tmp_path, capsys, task, arch):
        rc = _run(["train", *task, "--arch", arch, "--n", "40", "--epochs", "1",
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: arch: ")


    @pytest.mark.parametrize("bad", [{"epochs": "3"}, {"lambda": "x"}, {"groups": 0},
                                     {"lr": "x"}, {"batch": "8"}, {"n": "x"},
                                     {"silu": 1}, {"lr": 0}, {"n": 5},
                                     {"silu": "false"}, {"layernorm": "sometimes"},
                                     {"model": "xyz"}, {"task": 3},
                                     {"dim": 2, "task": "classification", "classes": 3},
                                     {"n": 15, "task": "classification", "classes": 20,
                                      "dim": 20},
                                     {"G": 1, "K": 1}, {"G": 1, "K": 1, "model": "kan",
                                                        "lambda": 0},
                                     {"G": 1, "arch": "in:1 -> mlp:3 -> kan:1"}])
    def test_bad_training_config_is_named(self, tmp_path, capsys, bad):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"task": "runge", "model": "frkan", "arch": "4",
                                   "G": 4, "K": 1, "n": 40, "epochs": 1, "batch": 16,
                                   **bad}))
        out = tmp_path / "r"
        rc = _run(["train", "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        key = next(iter(bad))   # the key the error names comes first
        assert f"error: {key}:" in capsys.readouterr().err
        assert not out.exists()


class TestKnotsCommand:
    def test_pass_and_report(self, tmp_path):
        rng = np.random.default_rng(5)
        kv = make_uniform_grid(-1, 1, 5, 1)
        net = Network([KANLayer(1, 1, kv, rng.normal(size=(1, 1, kv.n_bases)),
                                np.ones((1, 1)), np.ones((1, 1)))])
        ckpt = tmp_path / "net.json"
        save_checkpoint(net, str(ckpt))
        out = tmp_path / "audit"
        rc = _run(["knots", "--checkpoint", str(ckpt), "--slice-dim", "0",
                   "--scan-samples", "20000", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "knot_report.json").read_text())
        assert doc["pass"] is True
        assert doc["interior_count"] == 4
        assert doc["bounds"]["formula"] == "fixed-grid"

    def test_lower_bound_failure_exits_3(self, tmp_path):
        kv = make_uniform_grid(-1, 1, 5, 1)
        # zero spline coefficients: the map is smooth, so no knots appear
        net = Network([KANLayer(1, 1, kv, np.zeros((1, 1, kv.n_bases)),
                                np.ones((1, 1)), np.ones((1, 1)))])
        ckpt = tmp_path / "net.json"
        save_checkpoint(net, str(ckpt))
        rc = _run(["knots", "--checkpoint", str(ckpt),
                   "--scan-samples", "20000", "--out", str(tmp_path / "a")])
        assert rc == 3

    def test_missing_checkpoint(self, tmp_path, capsys):
        rc = _run(["knots", "--checkpoint", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "a")])
        assert rc == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_non_finite_checkpoint_exits_like_a_truncated_one(self, tmp_path, capsys):
        kv = make_uniform_grid(-1, 1, 4, 1)
        net = Network([KANLayer(1, 1, kv, np.zeros((1, 1, kv.n_bases)),
                                np.ones((1, 1)), np.ones((1, 1)))])
        ckpt = tmp_path / "net.json"
        save_checkpoint(net, str(ckpt))
        blob = ckpt.read_text()
        truncated = tmp_path / "truncated.json"
        truncated.write_text(blob[: len(blob) // 2])
        doc = json.loads(blob)
        doc["layers"][0]["coefficients"]["data"][2] = "nan"
        ckpt.write_text(json.dumps(doc))
        rc_truncated = _run(["knots", "--checkpoint", str(truncated),
                             "--out", str(tmp_path / "t")])
        capsys.readouterr()
        rc = _run(["knots", "--checkpoint", str(ckpt), "--out", str(tmp_path / "a")])
        assert rc == rc_truncated == 1
        err = capsys.readouterr().err
        assert "error: checkpoint:" in err and "coefficients" in err

    def test_corrupt_checkpoint_is_bad_input_for_export(self, tmp_path, capsys):
        ckpt = tmp_path / "net.json"
        save_checkpoint(build_sawtooth_network(4, layer2_seed=0), str(ckpt))
        doc = json.loads(ckpt.read_text())
        doc["layers"][1]["A_s"]["data"][0] = "inf"
        ckpt.write_text(json.dumps(doc))
        rc = _run(["export-activation", "--checkpoint", str(ckpt),
                   "--out", str(tmp_path / "a")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: checkpoint:" in err and "A_s" in err

    @pytest.mark.parametrize("doc, named", [
        ([1, 2], "'layers'"),
        ({"schema_version": 1, "architecture": "in:1", "layers": 5}, "layers:"),
        ({"schema_version": 1, "architecture": "in:1", "layers": [1]}, "layers[0]:"),
    ], ids=["top-level-array", "layers-not-a-list", "layer-not-an-object"])
    def test_badly_shaped_checkpoint_is_named(self, tmp_path, capsys, doc, named):
        ckpt = tmp_path / "net.json"
        ckpt.write_text(json.dumps(doc))
        rc = _run(["knots", "--checkpoint", str(ckpt), "--out", str(tmp_path / "a")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: checkpoint:" in err and named in err

    def test_bad_slice_dim(self, tmp_path, capsys):
        kv = make_uniform_grid(-1, 1, 4, 1)
        net = Network([KANLayer(1, 1, kv, np.zeros((1, 1, kv.n_bases)),
                                np.ones((1, 1)), np.ones((1, 1)))])
        ckpt = tmp_path / "net.json"
        save_checkpoint(net, str(ckpt))
        rc = _run(["knots", "--checkpoint", str(ckpt), "--slice-dim", "7",
                   "--out", str(tmp_path / "a")])
        assert rc == 1
        assert "slice_dim" in capsys.readouterr().err


    @pytest.mark.parametrize("bad", [{"scan_samples": "x"}, {"scan_samples": 5000.5},
                                     {"scan_samples": 10}, {"slice_dim": "0"},
                                     {"checkpoint": 5}, {"scan_samples": True}])
    def test_bad_knots_config_is_named(self, tmp_path, capsys, bad):
        # a SiLU-free K=1 layer takes the exact path, which reads no lattice
        # size, so a bad scan_samples must be caught before the path is picked
        kv = make_uniform_grid(-1, 1, 4, 1)
        net = Network([KANLayer(1, 1, kv, np.ones((1, 1, kv.n_bases)),
                                np.ones((1, 1)), np.zeros((1, 1)), silu_path=False)])
        ckpt = tmp_path / "net.json"
        save_checkpoint(net, str(ckpt))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"checkpoint": str(ckpt), **bad}))
        rc = _run(["knots", "--config", str(cfg), "--out", str(tmp_path / "a")])
        assert rc == 1
        (key,) = bad
        assert f"error: {key}:" in capsys.readouterr().err


    @pytest.mark.parametrize("kind,field,bad", [
        ("kan", "b", -2.0), ("kan", "K", 0), ("kan", "a", "nan"), ("kan", "a", "x"),
        ("frkan", "b", -2.0), ("frkan", "G", 3.5), ("frkan", "K", True),
        ("frkan", "silu", "false"), ("kan", "silu", 1)])
    def test_bad_checkpoint_grid_is_named(self, tmp_path, capsys, kind, field, bad):
        kv = make_uniform_grid(-1, 1, 4, 1)
        if kind == "kan":
            layer = KANLayer(1, 1, kv, np.ones((1, 1, kv.n_bases)), np.ones((1, 1)),
                             np.ones((1, 1)))
        else:
            layer = FRKANLayer(1, 1, 1, -1, 1, 4, 1, np.ones((1, kv.n_bases)),
                               np.zeros((1, 5)), np.ones((1, 1)))
        ckpt = tmp_path / "net.json"
        save_checkpoint(Network([layer]), str(ckpt))
        doc = json.loads(ckpt.read_text())
        doc["layers"][0][field] = bad
        ckpt.write_text(json.dumps(doc))
        rc = _run(["knots", "--checkpoint", str(ckpt), "--scan-samples", "2000",
                   "--out", str(tmp_path / "a")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: checkpoint: layers[0]: " in err and f" {field}: " in err

    @pytest.mark.parametrize("kind,field,bad", [
        ("kan", "d_in", 2.0), ("frkan", "h", 1.0), ("frkan", "d_out", 3.0)])
    def test_non_integer_checkpoint_width_is_named(self, tmp_path, capsys, kind, field, bad):
        # each value matches the layer's array shapes, so only the type is wrong
        kv = make_uniform_grid(-1, 1, 4, 1)
        if kind == "kan":
            layer = KANLayer(2, 1, kv, np.ones((2, 1, kv.n_bases)), np.ones((2, 1)),
                             np.ones((2, 1)))
        else:
            layer = FRKANLayer(2, 3, 1, -1, 1, 4, 1, np.ones((1, kv.n_bases)),
                               np.zeros((1, 5)), np.ones((2, 3)))
        ckpt = tmp_path / "net.json"
        save_checkpoint(Network([layer]), str(ckpt))
        doc = json.loads(ckpt.read_text())
        doc["layers"][0][field] = bad
        ckpt.write_text(json.dumps(doc))
        rc = _run(["knots", "--checkpoint", str(ckpt), "--scan-samples", "2000",
                   "--out", str(tmp_path / "a")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: checkpoint: layers[0]: {field}: need an integer >= 1" in err


    @pytest.mark.parametrize("command", ["knots", "export-activation"])
    @pytest.mark.parametrize("field,bad", [
        ("d_in", "x"), ("d_in", None), ("d_out", 1.5), ("d_out", 3), ("architecture", "in:1")])
    def test_checkpoint_contradicting_its_arrays_exits_1(self, tmp_path, capsys,
                                                         command, field, bad):
        kv = make_uniform_grid(-1, 1, 4, 1)
        net = Network([KANLayer(1, 2, kv, np.ones((1, 2, kv.n_bases)), np.ones((1, 2)),
                                np.ones((1, 2))),
                       MLPLayer(np.ones((2, 1)), np.zeros(1), "identity")])
        ckpt = tmp_path / "net.json"
        save_checkpoint(net, str(ckpt))
        doc = json.loads(ckpt.read_text())
        (doc if field == "architecture" else doc["layers"][1])[field] = bad
        ckpt.write_text(json.dumps(doc))
        rc = _run([command, "--checkpoint", str(ckpt), "--out", str(tmp_path / "a")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: checkpoint: " in err and f"{field}: " in err


class TestStabilityCommand:
    def test_small_run(self, tmp_path):
        out = tmp_path / "stab"
        rc = _run(["stability", "--ranges", "-1,1", "-10,10", "--depth", "3",
                   "--steps", "4", "--classes", "3", "--dim", "3",
                   "--width", "3", "--n", "96", "--batch", "16",
                   "--G", "4", "--K", "2", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["ranges"]) == 2
        assert (out / "metrics_m1_1.csv").exists()
        assert (out / "metrics_m10_10.csv").exists()


    @pytest.mark.parametrize("bad", [{"steps": "x"}, {"steps": 0}, {"depth": 2},
                                     {"width": "2"}, {"ranges": []},
                                     {"ranges": [[1, -1]]}, {"classes": 1}, {"dim": 0},
                                     {"dim": 2}, {"n": 15, "classes": 20, "dim": 20},
                                     {"G": 1, "K": 1}])
    def test_bad_stability_config_is_named(self, tmp_path, capsys, bad):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"ranges": [[-1, 1]], "depth": 3, "steps": 2,
                                   "classes": 3, "dim": 3, "width": 2, "n": 48,
                                   "batch": 16, "G": 4, "K": 1, **bad}))
        out = tmp_path / "s"
        rc = _run(["stability", "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        key = next(iter(bad))   # the key the error names comes first
        assert f"error: {key}:" in capsys.readouterr().err
        assert not out.exists()


class TestParamcountCommand:
    def test_itemization(self, tmp_path, capsys):
        out = tmp_path / "pc"
        rc = _run(["paramcount", "--arch", "in:4 -> frkan:16 -> out:1",
                   "--G", "20", "--K", "3", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "param_count.json").read_text())
        assert doc["total"] > 0
        assert "layers" in doc

    def test_zero_Z_in_config_file_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"Z": 0, "arch": "in:2 -> frkan:4 -> out:1"}))
        rc = _run(["paramcount", "--config", str(cfg), "--out", str(tmp_path / "pc")])
        assert rc == 1
        assert "error: Z:" in capsys.readouterr().err

    @pytest.mark.parametrize("key,bad", [("G", 0), ("K", 0), ("range", [10, -10]),
                                         ("G", "3"), ("K", 1.5), ("seed", "x"),
                                         ("seed", -1), ("Z", "x"), ("range", ["x", 1]),
                                         ("range", "ab")])
    def test_bad_grid_in_config_file_is_named(self, tmp_path, capsys, key, bad):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: bad, "arch": "in:2 -> frkan:4 -> out:1"}))
        rc = _run(["paramcount", "--config", str(cfg), "--out", str(tmp_path / "pc")])
        assert rc == 1
        assert f"error: {key}:" in capsys.readouterr().err

    def test_grid_below_float_resolution_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"G": 24, "range": [1e15, 1e15 + 1.0],
                                   "arch": "in:2 -> frkan:4 -> out:1"}))
        rc = _run(["paramcount", "--config", str(cfg), "--out", str(tmp_path / "pc")])
        assert rc == 1
        assert "error: G:" in capsys.readouterr().err

    def test_needs_full_descriptor(self, tmp_path, capsys):
        rc = _run(["paramcount", "--arch", "16", "--out", str(tmp_path / "pc")])
        assert rc == 1
        assert "arch" in capsys.readouterr().err


class TestExportActivation:
    def test_sawtooth_export(self, tmp_path):
        net = build_sawtooth_network(5, layer2_seed=0)
        ckpt = tmp_path / "saw.json"
        save_checkpoint(net, str(ckpt))
        out = tmp_path / "act"
        rc = _run(["export-activation", "--checkpoint", str(ckpt),
                   "--layer", "0", "--unit", "0", "--samples", "501",
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "activation.csv").read_text().strip().splitlines()
        assert lines[0] == "x,spline,silu_path,combined"
        assert all(len(l.split(",")) == 4 for l in lines)
        rows = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
        # spline column alternates +-1 at the base points
        for j, x in enumerate(np.linspace(-1, 1, 6)[:-1]):
            k = np.argmin(np.abs(rows[:, 0] - x))
            assert rows[k, 1] == pytest.approx((-1.0) ** j, abs=1e-2)

    def test_zero_coefficients_have_zero_spline_column(self, tmp_path):
        kv = make_uniform_grid(-1, 1, 4, 2)
        net = Network([KANLayer(2, 2, kv, np.zeros((2, 2, kv.n_bases)),
                                np.ones((2, 2)), np.ones((2, 2)))])
        ckpt = tmp_path / "net.json"
        save_checkpoint(net, str(ckpt))
        out = tmp_path / "act"
        rc = _run(["export-activation", "--checkpoint", str(ckpt),
                   "--layer", "0", "--unit", "3", "--samples", "100",
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "activation.csv").read_text().strip().splitlines()[1:]
        assert all(float(l.split(",")[1]) == 0.0 for l in lines)

    def test_layer_out_of_range(self, tmp_path, capsys):
        net = build_sawtooth_network(4, layer2_seed=0)
        ckpt = tmp_path / "saw.json"
        save_checkpoint(net, str(ckpt))
        rc = _run(["export-activation", "--checkpoint", str(ckpt),
                   "--layer", "9", "--out", str(tmp_path / "a")])
        assert rc == 1
        assert "layer" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [{"samples": "x"}, {"samples": 0}, {"unit": "x"},
                                     {"layer": "0"}, {"unit": 4}])
    def test_bad_export_config_is_named(self, tmp_path, capsys, bad):
        ckpt = tmp_path / "saw.json"
        save_checkpoint(build_sawtooth_network(4, layer2_seed=0), str(ckpt))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"checkpoint": str(ckpt), **bad}))
        out = tmp_path / "a"
        rc = _run(["export-activation", "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        (key,) = bad
        assert f"error: {key}:" in capsys.readouterr().err
        assert not (out / "activation.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_silu_column_is_the_layers_silu_on_a_wide_range(self, tmp_path):
        kv = make_uniform_grid(-1000, 1000, 4, 2)
        net = Network([KANLayer(1, 1, kv, np.zeros((1, 1, kv.n_bases)),
                                np.ones((1, 1)), np.ones((1, 1)))])
        ckpt = tmp_path / "net.json"
        save_checkpoint(net, str(ckpt))
        out = tmp_path / "act"
        rc = _run(["export-activation", "--checkpoint", str(ckpt), "--samples", "101",
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "activation.csv").read_text().strip().splitlines()[1:]
        rows = np.array([[float(v) for v in l.split(",")] for l in lines])
        assert rows[0, 0] == -2000.0 and rows[-1, 0] == 2000.0
        assert np.array_equal(rows[:, 2], _silu(rows[:, 0]))

    @pytest.mark.parametrize("kind", ["kan", "frkan"])
    def test_each_unit_exports_its_own_spline_group(self, tmp_path, kind):
        rng = np.random.default_rng(31)
        kv = make_uniform_grid(-1, 1, 4, 2)
        if kind == "kan":
            layer = KANLayer(2, 3, kv, rng.normal(size=(2, 3, kv.n_bases)),
                             rng.normal(size=(2, 3)), rng.normal(size=(2, 3)))
        else:
            layer = FRKANLayer(3, 2, 3, -1, 1, 4, 2, rng.normal(size=(3, kv.n_bases)),
                               rng.uniform(-0.2, 0.2, size=(3, 5)), rng.normal(size=(3, 2)))
        ckpt = tmp_path / "net.json"
        save_checkpoint(Network([layer]), str(ckpt))
        for unit, sg in enumerate(layer.spline_groups()):
            out = tmp_path / f"u{unit}"
            rc = _run(["export-activation", "--checkpoint", str(ckpt), "--layer", "0",
                       "--unit", str(unit), "--samples", "50", "--out", str(out)])
            assert rc == 0
            rows = np.array([[float(v) for v in line.split(",")] for line in
                             (out / "activation.csv").read_text().splitlines()[1:]])
            np.testing.assert_array_equal(rows[:, 0], np.linspace(-2.0, 2.0, 50))
            np.testing.assert_array_equal(rows[:, 1], spline_eval(rows[:, 0], sg))

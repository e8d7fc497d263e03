"""The CLI's key table: each command's flags, the README's examples and
flag lists, and checkpoints whose fields were mutated."""

import copy
import json
import re
import shlex
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frkan.cli import build_parser, effective_config, main
from frkan.layers import FRKANLayer, KANLayer, LayerNorm, MLPLayer, Network, save_checkpoint
from frkan.splines import init_shift, make_uniform_grid

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_section():
    return README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("\n## ", 1)[0]


def _readme_examples():
    block = _cli_section().split("```", 2)[1]
    return [line.strip() for line in block.replace("\\\n", " ").splitlines()
            if line.strip().startswith("frkan ")]


def _command_flags(command):
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    return {o for a in sub._actions for o in a.option_strings
            if o.startswith("--") and o not in ("--help", "--config")}


class TestFlagsFollowTheReadSets:
    @pytest.mark.parametrize("argv", [["stability", "--model", "kan"],
                                      ["stability", "--epochs", "3"],
                                      ["stability", "--no-silu"],
                                      ["knots", "--G", "5"],
                                      ["knots", "--seed", "1"],
                                      ["export-activation", "--arch", "8"],
                                      ["stability", "--range", "-1,1"],
                                      ["train", "--layer", "0"],
                                      ["paramcount", "--model", "kan"],
                                      ["paramcount", "--arch", "in:2 -> kan:3 -> out:1",
                                       "--epochs", "3"]])
    def test_a_flag_the_command_does_not_read_exits_1(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("layernorm,total", [("off", 508), ("auto", 556)])
    def test_paramcount_reads_layernorm(self, tmp_path, layernorm, total):
        out = tmp_path / "pc"
        rc = main(["paramcount", "--arch", "in:4 -> frkan:16 -> frkan:8 -> out:1",
                   "--layernorm", layernorm, "--out", str(out)])
        assert rc == 0
        assert json.loads((out / "param_count.json").read_text())["total"] == total

    @pytest.mark.parametrize("flags,a_s,total", [([], 9, 225), (["--no-silu"], 0, 216)])
    def test_paramcount_counts_A_s_only_with_the_silu_path(self, tmp_path, flags, a_s, total):
        out = tmp_path / "pc"
        assert main(["paramcount", "--arch", "in:2 -> kan:3 -> out:1", *flags,
                     "--out", str(out)]) == 0
        counts = json.loads((out / "param_count.json").read_text())
        assert (counts["totals"]["A_s"], counts["total"]) == (a_s, total)

    def test_reversed_ranges_name_ranges(self, tmp_path, capsys):
        rc = main(["stability", "--ranges", "5,1", "--out", str(tmp_path / "s")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ranges: ")

    def test_non_numeric_ranges_name_ranges(self, tmp_path, capsys):
        rc = main(["stability", "--ranges", "1,x", "--out", str(tmp_path / "s")])
        assert rc == 1
        assert "error: argument --ranges: " in capsys.readouterr().err.splitlines()[-1]

    def test_a_config_file_may_set_any_key(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": "kan", "epochs": 3, "silu": False, "G": 5,
                                   "checkpoint": "net.json"}))
        args = build_parser().parse_args(["knots", "--config", str(cfg)])
        config = effective_config(args)
        assert (config["model"], config["epochs"], config["silu"], config["G"]) == \
            ("kan", 3, False, 5)


class TestSizeBounds:
    @pytest.mark.parametrize("argv,key", [(["train", "--n"], "n"),
                                          (["train", "--G"], "G"),
                                          (["paramcount", "--K"], "K"),
                                          (["knots", "--scan-samples"], "scan_samples"),
                                          (["export-activation", "--samples"], "samples")])
    def test_a_size_no_array_can_hold_exits_1_naming_the_key(self, tmp_path, capsys,
                                                              argv, key):
        assert main(argv + [str(10**12), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: need an integer >= ")
        assert not (tmp_path / "o").exists()


class TestReadme:
    def test_examples_parse(self):
        examples = _readme_examples()
        assert len(examples) == 6
        for line in examples:
            config = effective_config(build_parser().parse_args(shlex.split(line)[1:]))
            assert config["command"] == shlex.split(line)[1]

    def test_flag_lists_match_the_parser(self):
        listed = re.findall(r"^- `([a-z-]+)`: (.*)$", _cli_section(), re.M)
        assert [c for c, _ in listed] == ["train", "approx", "knots", "stability",
                                          "paramcount", "export-activation"]
        for command, flags in listed:
            assert set(re.findall(r"`(--[\w-]+)`", flags)) == _command_flags(command), command


def _checkpoint_doc(layernorm):
    """A KAN, an FR-KAN and an identity-MLP layer as a checkpoint, with a
    LayerNorm after the KAN if asked (the audit takes no LayerNorm)."""
    rng = np.random.default_rng(0)
    kv = make_uniform_grid(-1.0, 1.0, 3, 1)
    shifts = np.stack([init_shift(kv, 8.0, seed=s) for s in (1, 2)])
    mods = [KANLayer(2, 3, kv, rng.normal(size=(2, 3, 4)), np.ones((2, 3)), np.ones((2, 3))),
            FRKANLayer(3, 2, 2, -1.0, 1.0, 3, 1, rng.normal(size=(2, 4)), shifts,
                       rng.normal(size=(3, 2))),
            MLPLayer(np.ones((2, 1)), np.zeros(1), "identity")]
    with tempfile.TemporaryDirectory() as d:
        save_checkpoint(Network(mods[:1] + [LayerNorm(3)] * layernorm + mods[1:]),
                        f"{d}/net.json")
        return json.loads(Path(f"{d}/net.json").read_text())


_DOCS = (_checkpoint_doc(False), _checkpoint_doc(True))
_FIELDS = ("kind", "d_in", "d_out", "G", "K", "a", "b", "h", "silu", "activation")
_TARGETS = [(n, path) for n, doc in enumerate(_DOCS) for path in
            [("schema_version",), ("architecture",)]
            + [("layers", i, f) for i in range(len(doc["layers"])) for f in _FIELDS]
            + [("layers", i, name, "shape") for i, e in enumerate(doc["layers"])
               for name, v in e.items() if isinstance(v, dict)]]
_INTS = st.integers(-3, 12) | st.sampled_from([10**9, 10**9 + 7, 10**15, -10**15, 2**63])
# the largest floats, where a grid's width or extension overflows
_VALUES = (st.none() | st.booleans() | _INTS | st.floats() | st.text(max_size=6)
           | st.lists(_INTS, max_size=4) | st.just({})
           | st.sampled_from([1.7976931348623157e308, -1.7976931348623157e308]))


def _run_both(doc, tmp):
    ckpt = f"{tmp}/net.json"
    Path(ckpt).write_text(json.dumps(doc))
    return (main(["knots", "--checkpoint", ckpt, "--scan-samples", "1000",
                  "--out", f"{tmp}/k"]),
            main(["export-activation", "--checkpoint", ckpt, "--samples", "5",
                  "--out", f"{tmp}/e"]))


class TestMutatedCheckpoints:
    @pytest.mark.parametrize("layer,field", [(0, "G"), (0, "K"), (1, "G"), (1, "K")])
    def test_a_huge_grid_field_exits_1_naming_it(self, tmp_path, capsys, layer, field):
        doc = copy.deepcopy(_DOCS[0])
        doc["layers"][layer][field] = 10**15
        assert _run_both(doc, tmp_path) == (1, 1)
        for line in capsys.readouterr().err.splitlines():
            assert line.startswith(f"error: checkpoint: layers[{layer}]: ")
            assert field in line.split(": ")[3]

    def test_a_huge_layernorm_width_exits_1(self, tmp_path, capsys):
        doc = copy.deepcopy(_DOCS[1])
        doc["layers"][1]["d_in"] = 10**9
        assert _run_both(doc, tmp_path) == (1, 1)
        assert "layers[1]: d_in: " in capsys.readouterr().err

    def test_a_network_not_finite_on_its_slice_exits_1(self, tmp_path, capsys):
        doc = copy.deepcopy(_DOCS[0])
        doc["layers"][0]["b"] = 1e308   # a finite grid whose SiLU path overflows
        (tmp_path / "net.json").write_text(json.dumps(doc))
        with pytest.warns(RuntimeWarning, match="overflow"):
            rc = main(["knots", "--checkpoint", str(tmp_path / "net.json"),
                       "--scan-samples", "1000", "--out", str(tmp_path / "k")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: checkpoint: function not finite")

    def test_the_unmutated_checkpoints_run(self, tmp_path, capsys):
        assert _run_both(_DOCS[0], tmp_path) in {(0, 0), (3, 0)}
        # the audit rejects a LayerNorm stack only once it has loaded it
        capsys.readouterr()
        assert _run_both(_DOCS[1], tmp_path) == (1, 0)
        assert capsys.readouterr().err.startswith("error: layer normalization is not")

    @settings(max_examples=150)
    @given(target=st.sampled_from(_TARGETS), value=_VALUES)
    @example(target=(0, ("layers", 0, "a")), value=-1.7976931348623157e308)
    @example(target=(0, ("layers", 1, "b")), value=1.7976931348623157e308)
    def test_no_mutation_exits_2(self, target, value):
        n, path = target
        doc = copy.deepcopy(_DOCS[n])
        node = doc
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            assert set(_run_both(doc, tmp)) <= {0, 1, 3}

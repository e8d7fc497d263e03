"""Command-line entry point wiring configs to experiments.

Every command validates its effective configuration (file values
overridden by flags), writes it to the output directory, and then emits
its artifacts there: a summary JSON, a metrics CSV and checkpoint for
training commands, and a breakpoint report for the knot audit.  Exit
codes: 0 success, 1 validation error, 2 runtime failure, 3 bound
containment failure.
"""

from __future__ import annotations

import argparse
import json
import numbers
import os
import re
import sys

import numpy as np

from .knots import MIN_SAMPLES, audit_network_knots
from .layers import (
    SPLINE_KINDS,
    BadArchitecture,
    CorruptCheckpoint,
    GridConfig,
    Network,
    _silu,
    init_network,
    load_checkpoint,
    param_count,
    parse_descriptor,
    save_checkpoint,
)
from .splines import _finite, spline_eval
from .tasks import (
    FEYNMAN_EQUATIONS,
    UnsupportedEquation,
    generate_classification,
    generate_feynman,
    generate_runge,
    save_dataset_csv,
)
from .training import TrainConfig, train


class ValidationError(Exception):
    pass


class IndexOutOfRange(Exception):
    pass


COMMANDS = ("train", "approx", "knots", "stability", "paramcount", "export-activation")

# every key an effective config may carry, with defaults
CONFIG_DEFAULTS = {
    "command": None,
    "model": "frkan",
    "arch": "8",
    "G": 20,
    "K": 3,
    "range": [-10.0, 10.0],
    "groups": None,
    "Z": 8.0,
    "lambda": 1e-4,
    "lr": 1e-3,
    "epochs": 30,
    "batch": 128,
    "seed": 2024,
    "equation": None,
    "n": 3000,
    "task": "feynman",
    "classes": 10,
    "dim": 10,
    "width": 8,
    "ranges": [[-1.0, 1.0], [-10.0, 10.0]],
    "depth": 4,
    "steps": 1000,
    "out": None,
    "checkpoint": None,
    "slice_dim": None,
    "layer": 0,
    "unit": 0,
    "samples": 2000,
    "scan_samples": 200_000,
    "normalize": False,
    "silu": True,
    "layernorm": "auto",
}


def _integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _at_least(lo):
    return lambda v: _integer(v) and v >= lo, f"an integer >= {lo}"


def _one_of(*choices):
    return lambda v: isinstance(v, str) and v in choices, "one of " + ", ".join(choices)


def _interval(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(map(_finite, v)) and v[0] < v[1]


_OPTIONAL_TEXT = (lambda v: v is None or isinstance(v, str), "null or a string")
_FLAG = (lambda v: isinstance(v, bool), "true or false")

# every key but command and arch (whose widths _descriptor_from checks),
# with its type and range; checked once, for file and flag values alike, so
# a bad value never fails later as a TypeError or is coerced without a word
KEY_CHECKS = {
    "model": _one_of("mlp", "kan", "frkan"),
    "G": _at_least(1),
    "K": _at_least(1),
    "range": (_interval, "[a, b] with finite a < b"),
    "groups": (lambda v: v is None or (_integer(v) and v >= 1), "null or an integer >= 1"),
    "Z": (lambda v: _finite(v) and v > 0, "a finite number > 0"),
    "lambda": (lambda v: _finite(v) and v >= 0, "a finite number >= 0"),
    "lr": (lambda v: _finite(v) and v > 0, "a finite number > 0"),
    "epochs": _at_least(1),
    "batch": _at_least(1),
    "seed": _at_least(0),
    "equation": _OPTIONAL_TEXT,
    "n": _at_least(10),
    "task": _one_of("feynman", "runge", "classification"),
    "classes": _at_least(2),
    "dim": _at_least(1),
    "width": _at_least(1),
    "ranges": (lambda v: isinstance(v, list) and len(v) > 0 and all(map(_interval, v)),
               "a non-empty list of [a, b] with finite a < b"),
    "depth": _at_least(3),
    "steps": _at_least(1),
    "out": _OPTIONAL_TEXT,
    "checkpoint": _OPTIONAL_TEXT,
    "slice_dim": (lambda v: v is None or _integer(v), "null or an integer"),
    "layer": (_integer, "an integer"),
    "unit": (_integer, "an integer"),
    "samples": _at_least(1),
    "scan_samples": _at_least(MIN_SAMPLES),
    "normalize": _FLAG,
    "silu": _FLAG,
    "layernorm": _one_of("auto", "off", "explicit"),
}


def _parse_range(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"range must be 'a,b', got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValidationError(f"range must be numeric, got {text!r}") from None
    if b <= a:
        raise ValidationError(f"range needs b > a, got {text!r}")
    return [a, b]


# lets "--ranges -1,1 -10,10" parse as values rather than flags
_RANGE_TOKEN = re.compile(r"^-\d+(?:\.\d+)?(?:,-?\d+(?:\.\d+)?)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frkan",
        description="Free-knot spline network experiments")
    parser._negative_number_matcher = _RANGE_TOKEN
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, train_flags=True):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output directory (default runs/<command>)")
        p.add_argument("--seed", type=int)
        p.add_argument("--model", choices=("mlp", "kan", "frkan"))
        p.add_argument("--arch", help="hidden widths '16,16' or a full 'in:..' descriptor")
        p.add_argument("--G", type=int)
        p.add_argument("--K", type=int)
        p.add_argument("--range", dest="range_", metavar="A,B",
                       help="grid range, e.g. -10,10")
        p.add_argument("--groups", type=int, help="spline groups per layer")
        p.add_argument("--Z", type=float, help="shift init range divisor")
        if train_flags:
            p.add_argument("--lambda", dest="lambda_", type=float,
                           help="smoothness penalty weight")
            p.add_argument("--lr", type=float)
            p.add_argument("--epochs", type=int)
            p.add_argument("--batch", type=int)
            p.add_argument("--normalize", action="store_true", default=None,
                           help="normalize inputs by train statistics")
            p.add_argument("--no-silu", dest="silu", action="store_false",
                           default=None, help="drop the SiLU shortcut path")
            p.add_argument("--layernorm", choices=("auto", "off", "explicit"),
                           help="normalization placement (default auto)")

    p = sub.add_parser("train", help="train one model on a generated task")
    common(p)
    p.add_argument("--task", choices=("feynman", "runge", "classification"))
    p.add_argument("--equation", help="equation id for --task feynman")
    p.add_argument("--n", type=int, help="dataset size")
    p.add_argument("--classes", type=int)
    p.add_argument("--dim", type=int)

    p = sub.add_parser("approx", help="function-approximation benchmark run")
    common(p)
    p.add_argument("--equation", required=False)
    p.add_argument("--n", type=int)

    p = sub.add_parser("knots", help="audit breakpoints of a checkpoint")
    common(p, train_flags=False)
    p.add_argument("--checkpoint", required=False)
    p.add_argument("--slice-dim", dest="slice_dim", type=int,
                   help="slice along one input axis (default: all-ones direction)")
    p.add_argument("--scan-samples", dest="scan_samples", type=int)

    p = sub.add_parser("stability", help="grid-range stability experiment")
    common(p)
    p.add_argument("--ranges", nargs="+", metavar="A,B",
                   help="grid ranges to compare, e.g. -1,1 -10,10")
    p.add_argument("--depth", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--n", type=int)

    p = sub.add_parser("paramcount", help="itemized parameter counts")
    common(p, train_flags=False)

    p = sub.add_parser("export-activation", help="dump one activation curve to CSV")
    common(p, train_flags=False)
    p.add_argument("--checkpoint", required=False)
    p.add_argument("--layer", type=int)
    p.add_argument("--unit", type=int, help="group index (frkan) or edge index (kan)")
    p.add_argument("--samples", type=int)

    for action in sub.choices.values():
        action._negative_number_matcher = _RANGE_TOKEN
    return parser


_ARG_TO_KEY = {"range_": "range", "lambda_": "lambda"}


def effective_config(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and flags (later wins); validate keys."""
    config = dict(CONFIG_DEFAULTS)
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file {path}: invalid JSON ({exc})") from None
        if not isinstance(file_cfg, dict):
            raise ValidationError(f"config file {path}: expected an object")
        for key, value in file_cfg.items():
            if key not in CONFIG_DEFAULTS:
                raise ValidationError(f"config file {path}: unknown key {key!r}")
            config[key] = value
    for arg, value in vars(args).items():
        if arg == "config" or value is None:
            continue
        key = _ARG_TO_KEY.get(arg, arg)
        if key not in CONFIG_DEFAULTS:
            continue
        if key == "range" and isinstance(value, str):
            value = _parse_range(value)
        if key == "ranges" and value and isinstance(value[0], str):
            value = [_parse_range(v) for v in value]
        config[key] = value
    config["command"] = args.command
    if config["command"] not in COMMANDS:
        raise ValidationError(f"unknown command {config['command']!r}")
    for key, (ok, need) in KEY_CHECKS.items():
        if not ok(config[key]):
            raise ValidationError(f"{key}: need {need}, got {config[key]!r}")
    # the smoothness penalty, computed on every training step, needs three
    # coefficients per spline: G + K of them
    arch = str(config["arch"])
    spline = "kan:" in arch if "in:" in arch else config["model"] != "mlp"
    trains_spline = (config["command"] == "stability"
                     or config["command"] in ("train", "approx") and spline)
    if trains_spline and config["G"] + config["K"] < 3:
        raise ValidationError(f"G: need G + K >= 3 for a spline layer, got G={config['G']}, "
                              f"K={config['K']}")
    # a classification dataset puts each class on a simplex vertex in dim
    # dimensions and draws at least one sample of each
    if config["command"] == "stability" or (config["command"] == "train"
                                            and config["task"] == "classification"):
        for key in ("dim", "n"):
            if config[key] < config["classes"]:
                raise ValidationError(f"{key}: need {key} >= classes "
                                      f"({config['classes']}), got {config[key]!r}")
    if config["out"] is None:
        config["out"] = os.path.join("runs", config["command"])
    return config


def _grid_from(config) -> GridConfig:
    a, b = config["range"]
    return GridConfig(G=config["G"], K=config["K"], a=a, b=b,
                      h=config["groups"], Z=config["Z"])


def _descriptor_from(config, d_in: int, d_out: int) -> str:
    arch = str(config["arch"])
    if "in:" in arch:
        try:
            got_in, tokens = parse_descriptor(arch)
        except BadArchitecture as exc:
            raise ValidationError(f"arch: {exc}") from None
        got_out = [t for t in tokens if len(t) == 2][-1][1]
        if (got_in, got_out) != (d_in, d_out):
            raise ValidationError(f"arch: {arch!r} maps {got_in} inputs to {got_out} outputs; "
                                  f"the data have {d_in} inputs and {d_out} outputs")
        return arch
    widths = [w.strip() for w in arch.split(",") if w.strip()]
    for w in widths:
        if not w.isdigit() or int(w) < 1:
            raise ValidationError(f"arch: bad hidden width {w!r}")
    model = config["model"]
    hidden = " -> ".join(f"{model}:{w}" for w in widths)
    middle = f" -> {hidden}" if hidden else ""
    return f"in:{d_in}{middle} -> {model}:{d_out}"


def _make_dataset(config):
    task = config["task"]
    if task == "runge":
        return generate_runge(config["n"], config["seed"])
    if task == "classification":
        return generate_classification(config["n"], config["classes"],
                                       config["dim"], config["seed"])
    if task == "feynman":
        if not config["equation"]:
            raise ValidationError("equation: required for the feynman task "
                                  f"(one of {sorted(FEYNMAN_EQUATIONS)})")
        try:
            return generate_feynman(config["equation"], config["n"], config["seed"])
        except UnsupportedEquation as exc:
            raise ValidationError(f"equation: {exc}") from None
    raise ValidationError(f"task: unknown task {task!r}")


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit_config(config):
    os.makedirs(config["out"], exist_ok=True)
    _write_json(os.path.join(config["out"], "effective_config.json"), config)


def _train_command(config) -> int:
    data = _make_dataset(config)
    d_out = config["classes"] if data.task == "classification" else 1
    descriptor = _descriptor_from(config, data.n_features, d_out)
    net = init_network(descriptor, _grid_from(config), seed=config["seed"],
                       silu=config["silu"], layernorm=config["layernorm"])
    tc = TrainConfig(learning_rate=config["lr"], epochs=config["epochs"],
                     batch_size=config["batch"], lam=config["lambda"],
                     seed=config["seed"],
                     task="classification" if data.task == "classification" else "regression",
                     normalize_inputs=config["normalize"])
    semantic = {k: v for k, v in config.items() if k != "out"}
    record, net = train(net, data, tc, extra_hash={"descriptor": descriptor,
                                                   "cli": semantic})
    out = config["out"]
    record.write_csv(os.path.join(out, "metrics.csv"))
    save_checkpoint(net, os.path.join(out, "checkpoint.json"))
    save_dataset_csv(data, os.path.join(out, "dataset.csv"),
                     os.path.join(out, "dataset_manifest.json"))
    summary = record.summary()
    summary.update(descriptor=descriptor, params=param_count(net)["total"],
                   dataset=data.manifest)
    if data.task == "regression" and record.nan_step is None:
        summary["test_rmse"] = record.final_metric
    _write_json(os.path.join(out, "summary.json"), summary)
    print(f"{config['command']}: final {record.metric_name} = {record.final_metric!r} "
          f"(nan_step={record.nan_step}{_cause(record.nan_cause)})")
    return 0


def _cause(nan_cause) -> str:
    return "" if nan_cause is None else f", nan_cause={nan_cause!r}"


def _checkpoint_from(config, command: str) -> Network:
    """The network in the config's checkpoint; a missing, unreadable or
    corrupt file is bad input."""
    if not config["checkpoint"]:
        raise ValidationError(f"checkpoint: required for {command}")
    try:
        return load_checkpoint(config["checkpoint"])
    except (OSError, CorruptCheckpoint) as exc:
        raise ValidationError(f"checkpoint: {exc}") from None


def _knots_command(config) -> int:
    net = _checkpoint_from(config, "the knots command")
    direction = None
    if config["slice_dim"] is not None:
        d = config["slice_dim"]
        if not 0 <= d < net.d_in:
            raise ValidationError(f"slice_dim: {d} out of range for d_in={net.d_in}")
        direction = np.zeros(net.d_in)
        direction[d] = 1.0
    audit = audit_network_knots(net, direction=direction,
                                samples=config["scan_samples"])
    out = config["out"]
    _write_json(os.path.join(out, "knot_report.json"), audit.to_dict())
    print(f"knots: measured {audit.measured_interior} interior "
          f"(+2 boundary) vs bounds [{audit.bounds.lower}, {audit.bounds.upper}] "
          f"-> {'pass' if audit.passed else 'FAIL'}")
    return 0 if audit.passed else 3


def _stability_command(config) -> int:
    from .training import grid_range_experiment

    results = grid_range_experiment(
        [tuple(r) for r in config["ranges"]], depth=config["depth"],
        steps=config["steps"], seed=config["seed"], classes=config["classes"],
        input_dim=config["dim"], width=config["width"], G=config["G"],
        K=config["K"], n_samples=config["n"], batch_size=config["batch"],
        learning_rate=config["lr"], lam=config["lambda"])
    out = config["out"]
    summary = {"ranges": []}
    for res in results:
        a, b = res["range"]
        tag = f"{a:g}_{b:g}".replace("-", "m")
        res["record"].write_csv(os.path.join(out, f"metrics_{tag}.csv"))
        entry = res["record"].summary()
        entry["range"] = [a, b]
        summary["ranges"].append(entry)
        print(f"stability range [{a:g}, {b:g}]: nan_step={entry['nan_step']}"
              f"{_cause(entry['nan_cause'])} final={entry['final_metric']!r}")
    _write_json(os.path.join(out, "summary.json"), summary)
    return 0


def _paramcount_command(config) -> int:
    arch = str(config["arch"])
    if "in:" not in arch:
        raise ValidationError("arch: paramcount needs a full descriptor "
                              "(e.g. 'in:4 -> frkan:16 -> out:1')")
    net = init_network(arch, _grid_from(config), seed=config["seed"],
                       silu=config["silu"], layernorm=config["layernorm"])
    counts = param_count(net)
    _write_json(os.path.join(config["out"], "param_count.json"), counts)
    print(json.dumps(counts, indent=2))
    return 0


def _export_activation_command(config) -> int:
    net = _checkpoint_from(config, "export-activation")
    idx = config["layer"]
    if not 0 <= idx < len(net.modules):
        raise IndexOutOfRange(f"layer: {idx} out of range (network has "
                              f"{len(net.modules)} modules)")
    layer = net.modules[idx]
    if layer.kind not in SPLINE_KINDS:
        raise IndexOutOfRange(f"layer: module {idx} ({layer.kind}) has no spline "
                              "activation to export")
    # KAN units are edges i * d_out + o, FR-KAN units are groups
    groups = layer.spline_groups()
    unit = config["unit"]
    if not 0 <= unit < len(groups):
        raise IndexOutOfRange(f"unit: {unit} out of range ({layer.kind} layer "
                              f"{idx} has {len(groups)} activations)")
    sg = groups[unit]
    if layer.kind == "frkan":
        combine = lambda s, z: s + z if layer.silu_path else s
    else:
        i, o = divmod(unit, layer.d_out)
        wb, ws = layer.A_b[i, o], layer.A_s[i, o]
        combine = lambda s, z: wb * s + (ws * z if layer.silu_path else 0.0)
    kv = sg.knots
    xs = np.linspace(kv.a - kv.K * kv.dg, kv.b + kv.K * kv.dg, config["samples"])
    spline_col = spline_eval(xs, sg)
    silu_col = _silu(xs)
    combined = combine(spline_col, silu_col)
    path = os.path.join(config["out"], "activation.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,spline,silu_path,combined\n")
        for row in zip(xs, spline_col, silu_col, combined):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    print(f"export-activation: wrote {config['samples']} rows to {path}")
    return 0


_DISPATCH = {
    "train": _train_command,
    "approx": _train_command,   # same pipeline; approx defaults to feynman RMSE
    "knots": _knots_command,
    "stability": _stability_command,
    "paramcount": _paramcount_command,
    "export-activation": _export_activation_command,
}


def run(config: dict) -> int:
    """Validate, emit the effective config, and execute one command."""
    from .knots import UnsupportedOrder

    try:
        if config["command"] == "approx":
            config["task"] = "feynman"
        _emit_config(config)
        return _DISPATCH[config["command"]](config)
    except (ValidationError, IndexOutOfRange, BadArchitecture, UnsupportedOrder,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse usage errors are validation errors; --help stays 0
        return 0 if exc.code == 0 else 1
    try:
        config = effective_config(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return run(config)
    except SystemExit:
        raise
    except Exception as exc:  # runtime failure
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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
import math
import numbers
import os
import re
import sys
from typing import Callable, NamedTuple

import numpy as np

from .autodiff import NonFiniteValue
from .knots import MIN_SAMPLES, UnsupportedOrder, audit_network_knots
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


def _integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _interval(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(map(_finite, v)) and v[0] < v[1]


def _pair(text):
    """'a,b' -> [a, b]; whether a < b is the key's check."""
    try:
        a, b = map(float, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"need numeric 'a,b', got {text!r}") from None
    return [a, b]


class Check(NamedTuple):
    """What a key's value must be, and how its flag parses (add_argument
    keywords)."""
    ok: Callable
    need: str
    flag: dict = {}


def _at_least(lo, hi=math.inf):
    """An integer >= lo, and <= hi if given: a size key's bound, far above
    any run it serves, turns a size NumPy cannot allocate into exit 1."""
    need = f"an integer >= {lo}" + (f" and <= {hi}" if hi < math.inf else "")
    return Check(lambda v: _integer(v) and lo <= v <= hi, need, {"type": int})


def _one_of(*choices):
    return Check(lambda v: isinstance(v, str) and v in choices, "one of " + ", ".join(choices),
                 {"choices": choices})


_TEXT = Check(lambda v: v is None or isinstance(v, str), "null or a string")
_POSITIVE = Check(lambda v: _finite(v) and v > 0, "a finite number > 0", {"type": float})
_NON_NEGATIVE = Check(lambda v: _finite(v) and v >= 0, "a finite number >= 0", {"type": float})
_INDEX = Check(_integer, "an integer", {"type": int})
_SWITCH = Check(lambda v: isinstance(v, bool), "true or false")
_ARCH = Check(lambda v: True, "")   # _descriptor_from checks the widths


class Key(NamedTuple):
    default: object
    check: Check
    read: str              # the commands that read the key, and so take its flag
    help: str | None = None


_TRAINING = "train approx"
# Every key an effective config may carry, once: its default, its check
# (run once, for file and flag values alike, so a bad value never fails
# later as a TypeError or is coerced without a word) and the commands that
# read it.  A command takes the flags of the keys it reads; a config file
# may set any key.  A flag is --<key> with "_" written "-", a true default
# makes it --no-<key> and a false one a switch.
KEYS = {
    "command": Key(None, _TEXT, ""),   # argparse sets it
    "model": Key("frkan", _one_of("mlp", "kan", "frkan"), _TRAINING),
    "arch": Key("8", _ARCH, f"{_TRAINING} paramcount",
                "hidden widths '16,16' or a full 'in:..' descriptor"),
    "G": Key(20, _at_least(1, 10**5), f"{_TRAINING} stability paramcount"),
    "K": Key(3, _at_least(1, 10**3), f"{_TRAINING} stability paramcount"),
    "range": Key([-10.0, 10.0], Check(_interval, "[a, b] with finite a < b",
                                      {"type": _pair, "metavar": "A,B"}),
                 f"{_TRAINING} paramcount", "grid range, e.g. -10,10"),
    "groups": Key(None, Check(lambda v: v is None or (_integer(v) and v >= 1),
                              "null or an integer >= 1", {"type": int}),
                  f"{_TRAINING} paramcount", "spline groups per layer"),
    "Z": Key(8.0, _POSITIVE, f"{_TRAINING} paramcount", "shift init range divisor"),
    "lambda": Key(1e-4, _NON_NEGATIVE, f"{_TRAINING} stability", "smoothness penalty weight"),
    "lr": Key(1e-3, _POSITIVE, f"{_TRAINING} stability"),
    "epochs": Key(30, _at_least(1), _TRAINING),
    "batch": Key(128, _at_least(1), f"{_TRAINING} stability"),
    "seed": Key(2024, _at_least(0), f"{_TRAINING} stability paramcount"),
    "equation": Key(None, _TEXT, _TRAINING, "equation id for the feynman task"),
    "n": Key(3000, _at_least(10, 10**7), f"{_TRAINING} stability", "dataset size"),
    "task": Key("feynman", _one_of("feynman", "runge", "classification"), "train"),
    "classes": Key(10, _at_least(2), "train stability"),
    "dim": Key(10, _at_least(1), "train stability"),
    "width": Key(8, _at_least(1), "stability"),
    "ranges": Key([[-1.0, 1.0], [-10.0, 10.0]],
                  Check(lambda v: isinstance(v, list) and len(v) > 0 and all(map(_interval, v)),
                        "a non-empty list of [a, b] with finite a < b",
                        {"type": _pair, "metavar": "A,B", "nargs": "+"}),
                  "stability", "grid ranges to compare, e.g. -1,1 -10,10"),
    "depth": Key(4, _at_least(3), "stability"),
    "steps": Key(1000, _at_least(1), "stability"),
    "out": Key(None, _TEXT, f"{_TRAINING} knots stability paramcount export-activation",
               "output directory (default runs/<command>)"),
    "checkpoint": Key(None, _TEXT, "knots export-activation"),
    "slice_dim": Key(None, Check(lambda v: v is None or _integer(v), "null or an integer",
                                 {"type": int}),
                     "knots", "slice along one input axis (default: all-ones direction)"),
    "layer": Key(0, _INDEX, "export-activation"),
    "unit": Key(0, _INDEX, "export-activation", "group index (frkan) or edge index (kan)"),
    "samples": Key(2000, _at_least(1, 10**8), "export-activation"),
    "scan_samples": Key(200_000, _at_least(MIN_SAMPLES, 10**8), "knots"),
    "normalize": Key(False, _SWITCH, _TRAINING, "normalize inputs by train statistics"),
    "silu": Key(True, _SWITCH, f"{_TRAINING} paramcount", "drop the SiLU shortcut path"),
    "layernorm": Key("auto", _one_of("auto", "off", "explicit"), f"{_TRAINING} paramcount",
                     "normalization placement (default auto)"),
}
CONFIG_DEFAULTS = {key: spec.default for key, spec in KEYS.items()}

# lets "--ranges -1,1 -10,10" parse as values rather than flags
_RANGE_TOKEN = re.compile(r"^-\d+(?:\.\d+)?(?:,-?\d+(?:\.\d+)?)?$")


def _add_flag(p, key, spec):
    name = key.replace("_", "-")
    if isinstance(spec.default, bool):
        p.add_argument(f"--{'no-' * spec.default}{name}", dest=key, default=None,
                       action="store_false" if spec.default else "store_true", help=spec.help)
    else:
        p.add_argument(f"--{name}", dest=key, help=spec.help, **spec.check.flag)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frkan", allow_abbrev=False,
        description="Free-knot spline network experiments")
    parser._negative_number_matcher = _RANGE_TOKEN
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p._negative_number_matcher = _RANGE_TOKEN
        p.add_argument("--config", help="JSON config file; flags override it")
        for key, spec in KEYS.items():
            if command in spec.read.split():
                _add_flag(p, key, spec)
    return parser


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
            if key not in KEYS:
                raise ValidationError(f"config file {path}: unknown key {key!r}")
            config[key] = value
    config.update((key, value) for key, value in vars(args).items()
                  if key in KEYS and value is not None)
    for key, spec in KEYS.items():
        if not spec.check.ok(config[key]):
            raise ValidationError(f"{key}: need {spec.check.need}, got {config[key]!r}")
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
    try:
        audit = audit_network_knots(net, direction=direction,
                                    samples=config["scan_samples"])
    except NonFiniteValue as exc:   # the checkpoint's values overflow on the slice
        raise ValidationError(f"checkpoint: {exc}") from None
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
        raise ValidationError(f"layer: {idx} out of range (network has "
                              f"{len(net.modules)} modules)")
    layer = net.modules[idx]
    if layer.kind not in SPLINE_KINDS:
        raise ValidationError(f"layer: module {idx} ({layer.kind}) has no spline "
                              "activation to export")
    # KAN units are edges i * d_out + o, FR-KAN units are groups
    groups = layer.spline_groups()
    unit = config["unit"]
    if not 0 <= unit < len(groups):
        raise ValidationError(f"unit: {unit} out of range ({layer.kind} layer "
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


# each command's help and function; approx is train's pipeline on the
# feynman task (RMSE)
COMMANDS = {
    "train": ("train one model on a generated task", _train_command),
    "approx": ("function-approximation benchmark run", _train_command),
    "knots": ("audit breakpoints of a checkpoint", _knots_command),
    "stability": ("grid-range stability experiment", _stability_command),
    "paramcount": ("itemized parameter counts", _paramcount_command),
    "export-activation": ("dump one activation curve to CSV", _export_activation_command),
}


def run(config: dict) -> int:
    """Validate, emit the effective config, and execute one command."""
    try:
        if config["command"] == "approx":
            config["task"] = "feynman"
        _emit_config(config)
        return COMMANDS[config["command"]][1](config)
    except (ValidationError, BadArchitecture, UnsupportedOrder, ValueError) as exc:
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
